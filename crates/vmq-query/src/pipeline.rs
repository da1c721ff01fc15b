//! The batched stream executor.
//!
//! There is one executor, [`SharedStreamPlan`]: N select and aggregate
//! statements registered against **one** pass over a stream — and a single
//! statement ([`QueryExecutor`](crate::exec::QueryExecutor)) is the plan of
//! one. Frames arrive in batches of [`PipelineConfig::batch_size`] (chunked
//! from a slice by [`SharedStreamPlan::execute_slice`], or pushed one batch
//! at a time through [`SharedStreamPlan::push_batch`], as a fleet scheduler
//! does) and every batch goes through three calls:
//!
//! ```text
//! prepare_batch                       detect_pending          complete_batch
//! 1 decode charge                     the detector over       4b install detections (cache insert,
//! 2 backend inference once per          the batch's missing      one global charge per fresh frame)
//!   (backend, frame) + one atom-       frames, sharded        5 exact evaluation of each frame's
//!   table evaluation into per-atom      across the worker        subscribers: each distinct predicate
//!   frame bit-words                     pool (a fleet            once per frame, a statement ANDs
//! 3 per-statement fan-out: a select     scheduler pools          its ids
//!   ANDs its atoms' words and walks     many plans' frames    6 aggregates emit completed hopping
//!   the set bits, aggregates append     into one dispatch)       windows to their WindowEstimator
//!   indicator columns                                         · drift monitors replan at the batch
//! 4a detection-cache probe                                       boundary
//! ```
//!
//! Statements are grouped by filter backend so inference runs once per
//! `(backend, frame)`; every distinct cascade atom is evaluated once per
//! frame out of a per-backend [`AtomTable`] and fanned out to the statements
//! subscribing to it as a word `AND` over the batch; every distinct exact
//! predicate is evaluated at most once per detected frame; the expensive
//! detector is deduplicated through a
//! [`DetectionCache`](vmq_detect::DetectionCache) (invoked once per frame in
//! the union any statement escalates). A select escalates the frames its
//! cascade passes (brute force: every frame) and keeps those whose detections
//! satisfy the query exactly. An aggregate (`WINDOW HOPPING` statements,
//! Sec. III) never drops a frame: the filter runs on *every* frame (its
//! window-wide indicator mean is what powers the control-variate variance
//! reduction) while the detector runs only on the frames the estimator
//! samples.
//!
//! Each phase charges its whole batch to the virtual-time [`CostLedger`] in
//! one call — byte-identical to per-frame charging because the ledger derives
//! totals from frame counts. Every statement keeps a private as-if-isolated
//! ledger while the global ledger charges shared work once and splits it in
//! a [`SharedCost`](vmq_detect::SharedCost) attribution, so a statement's
//! [`QueryRun`] is bit-identical whether it ran alone or among N others, and
//! for any worker count. A run reports per-operator [`StageMetrics`] rows
//! (frames in/out, virtual and wall-clock milliseconds) under the operator
//! names of the logical plan:
//!
//! ```text
//! select:     [calibrate] source → [cascade-filter] → detect → predicate-eval → sink
//! aggregate:  source → window-filter (× backend) → aggregate-sink
//! ```
//!
//! The `aggregate-sink` row bills exactly the estimator's sampled (and
//! calibration) detector work, so stage metrics keep the window-wide filter
//! cost and the sampled detector cost honest and separate.

use crate::ast::{ExactTable, Query};
use crate::drift::{DriftMonitor, DriftSetup};
use crate::exec::QueryRun;
use crate::plan::{frame_words, AtomId, AtomTable, AtomVerdicts, CascadeConfig, FilterCascade, IndicatorId};
use crate::planner::CalibrationReport;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vmq_detect::{CostLedger, Detector, FrameDetections, Stage};
use vmq_filters::{FilterEstimate, FrameFilter};
use vmq_video::Frame;

/// Tuning knobs of the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Maximum number of frames per batch.
    pub batch_size: usize,
}

impl PipelineConfig {
    /// Default batch size of the executor.
    pub const DEFAULT_BATCH_SIZE: usize = 32;

    /// Config with a custom batch size (clamped to at least one frame).
    pub fn with_batch_size(batch_size: usize) -> Self {
        PipelineConfig { batch_size: batch_size.max(1) }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { batch_size: Self::DEFAULT_BATCH_SIZE }
    }
}

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

/// Per-operator execution metrics, the unified currency of reporting:
/// `QueryRun`, the engine's `QueryOutcome` and the golden tests all
/// derive their numbers from these.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Operator name (`calibrate`, `source`, `cascade-filter`,
    /// `drift-monitor`, `detect`, `predicate-eval`, `sink`, `window-filter`,
    /// `aggregate-sink`).
    pub operator: String,
    /// The cost-model stage the operator charges, if any.
    pub stage: Option<Stage>,
    /// Frames that entered the operator.
    pub frames_in: usize,
    /// Frames that left the operator (survivors).
    pub frames_out: usize,
    /// Virtual milliseconds charged by the operator (`frames_in × per-frame
    /// stage cost`; zero for uncharged operators).
    pub virtual_ms: f64,
    /// Real wall-clock milliseconds spent inside the operator. For sharded
    /// operators this is the *elapsed* span of the stage — the scoped worker
    /// pool joins before the stage returns, so the figure is the
    /// max-over-workers wall span, never the sum of per-worker CPU time.
    pub wall_ms: f64,
    /// Worker threads the operator actually sharded its work over: the
    /// decode width for a learned backend's `cascade-filter`,
    /// `window-filter` and `drift-monitor` rows, the plan's `workers` for
    /// `detect`, and 1 for a backend that reads no raster (the calibrated
    /// filter never shards) and for sequential operators. Speedup arithmetic
    /// on `wall_ms` stays honest: dividing by a baseline compares elapsed
    /// spans, not CPU time.
    pub workers: usize,
    /// The compute kernel backend the operator's inference ran on (`"avx2"`,
    /// `"neon"`, `"scalar"` for dispatched f32 kernels; `"int8"` for
    /// quantized filters; `"none"` for filters that run no network). `None`
    /// for operators without filter inference. Keeps wall-clock claims
    /// auditable: a bench row that says `wall_ms` dropped also says which
    /// kernel path produced the number.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kernel_backend: Option<String>,
}

impl StageMetrics {
    /// Builds a row whose virtual charge is `charged × per-frame stage cost`
    /// (zero for uncharged operators). The one constructor behind every
    /// stage row — the plan's finalisation and the runtime's synthesised
    /// brute-force baseline — so the cost formula cannot drift between them.
    pub fn charged_row(
        operator: &str,
        stage: Option<Stage>,
        frames_in: usize,
        frames_out: usize,
        charged: u64,
        model: &vmq_detect::CostModel,
        wall_ms: f64,
    ) -> Self {
        StageMetrics {
            operator: operator.to_string(),
            stage,
            frames_in,
            frames_out,
            virtual_ms: stage.map_or(0.0, |s| model.cost_ms(s) * charged as f64),
            wall_ms,
            workers: 1,
            kernel_backend: None,
        }
    }

    /// The pre-pass `calibrate` row of an adaptively planned select: the
    /// planner's prefix and its calibration bill (already charged to the
    /// statement's ledger), so calibration cost shows up in the same
    /// per-operator report as execution cost.
    pub fn calibrate(report: &CalibrationReport) -> Self {
        StageMetrics {
            operator: "calibrate".to_string(),
            stage: None,
            frames_in: report.prefix_frames,
            frames_out: report.prefix_frames,
            virtual_ms: report.calibration_ms,
            wall_ms: report.calibration_wall_ms,
            workers: 1,
            kernel_backend: None,
        }
    }

    /// Fraction of entering frames that survived the operator.
    pub fn pass_rate(&self) -> f64 {
        if self.frames_in == 0 {
            0.0
        } else {
            self.frames_out as f64 / self.frames_in as f64
        }
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
    /// Appends one frame's control-variate values: each per-predicate
    /// [`FilterCascade::cv_indicators`] value (graded in `[0, 1]`) to its
    /// series, and their product to `pass` (the soft conjunction, identical
    /// to the boolean one when every indicator is 0/1). A multi-predicate
    /// query also gets the product as a trailing series: the MCV
    /// regression's linear span cannot express `z₁·…·z_d`, yet for a
    /// conjunctive query that is the single most informative feature, so
    /// including it guarantees MCV explains at least as much variance as the
    /// single-CV control.
    fn push_controls(&mut self, controls: impl IntoIterator<Item = f64>) {
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
    fn slice(&self, range: std::ops::Range<usize>) -> Self {
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
pub trait WindowEstimator {
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

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Per-batch wall-clock accumulators of the shared pass's phases.
#[derive(Debug, Default, Clone, Copy)]
struct SharedWall {
    detect_ms: f64,
    /// Exact predicate evaluation of every select, on the shared annotations.
    eval_ms: f64,
}

/// Accumulated mid-stream state of an incremental shared pass: built lazily
/// by the first [`SharedStreamPlan::push_batch`], consumed by
/// [`SharedStreamPlan::finish`].
struct ExecState {
    /// Every registered query, by local index.
    all_users: Vec<usize>,
    /// Backend → the local indices of the queries consuming its inference.
    backend_users: Vec<Vec<usize>>,
    /// The decode step: every backend with users, grouped so that backends
    /// whose networks read equal rasters share one render per frame
    /// ([`vmq_filters::estimate_shared`]). A backend that reads no raster is
    /// a group of its own.
    decode_groups: Vec<Vec<usize>>,
    frames_total: usize,
    wall: SharedWall,
    /// Per backend: inference plus the one evaluation of its atom table. A
    /// decode group is timed once and its wall split evenly across its
    /// backends.
    backend_wall: Vec<f64>,
}

/// One bit per `(frame, query)`: which statements subscribe to which batch
/// positions.
struct Subscribers {
    words_per_frame: usize,
    bits: Vec<u64>,
}

impl Subscribers {
    fn new(frames: usize, queries: usize) -> Self {
        let words_per_frame = queries.div_ceil(64);
        Subscribers { words_per_frame, bits: vec![0; frames * words_per_frame] }
    }

    fn insert(&mut self, frame: usize, q: usize) {
        self.bits[frame * self.words_per_frame + q / 64] |= 1 << (q % 64);
    }

    fn contains(&self, frame: usize, q: usize) -> bool {
        self.bits[frame * self.words_per_frame + q / 64] >> (q % 64) & 1 == 1
    }

    /// The queries subscribed to `frame`, ascending.
    fn of(&self, frame: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.bits[frame * self.words_per_frame..][..self.words_per_frame];
        words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |rest| Some(rest & (rest - 1)).filter(|&r| r != 0))
                .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }
}

/// Phase 3 for select `q`: escalates the batch positions set in `pass`
/// (frame bit-words, see [`AtomVerdicts::pass_words`]) by walking the set
/// bits and, under a drift monitor, the audit channel's seeded draw over the
/// rejected rest, in frame order. Returns the number of passing frames.
fn escalate(
    q: usize,
    pass: &[u64],
    frames: &[Frame],
    drift: Option<&DriftMonitor>,
    escalations: &mut Subscribers,
    audits: &mut Subscribers,
) -> usize {
    let mut passed = 0;
    for (w, &word) in pass.iter().enumerate() {
        passed += word.count_ones() as usize;
        let mut rest = word;
        while rest != 0 {
            escalations.insert(w * 64 + rest.trailing_zeros() as usize, q);
            rest &= rest - 1;
        }
    }
    if let Some(monitor) = drift {
        for (i, frame) in frames.iter().enumerate() {
            // Audit tap: a seeded fraction of rejected frames goes to the
            // detector anyway.
            if pass[i / 64] >> (i % 64) & 1 == 0 && monitor.audits(frame) {
                escalations.insert(i, q);
                audits.insert(i, q);
            }
        }
    }
    passed
}

/// A batch mid-flight through the shared pass: the cheap phases (decode
/// charge, backend inference, per-query fan-out, detection-cache probe) have
/// run, and the `missing` frames still await the detector. Produced by
/// [`SharedStreamPlan::prepare_batch`], consumed by
/// [`SharedStreamPlan::complete_batch`]; between the two, a fleet scheduler
/// may pool many plans' missing frames into one coalesced detector dispatch.
pub struct PreparedBatch<'f> {
    frames: &'f [Frame],
    /// Batch position → the local queries that escalated it.
    escalations: Subscribers,
    /// The escalations the audit channel added.
    audits: Subscribers,
    /// Batch position → shared annotations, filled for cache hits; the
    /// missing positions are completed by `complete_batch`.
    resolved: Vec<Option<std::sync::Arc<FrameDetections>>>,
    /// Batch positions escalated but absent from the cache, in batch order.
    missing: Vec<usize>,
}

impl PreparedBatch<'_> {
    /// Number of frames awaiting detection.
    pub fn missing_len(&self) -> usize {
        self.missing.len()
    }

    /// The `j`-th frame awaiting detection (batch order).
    pub fn missing_frame(&self, j: usize) -> &Frame {
        &self.frames[self.missing[j]]
    }
}

/// The shape-specific state of one registered query.
enum SharedQueryKind<'a> {
    /// A frame-selection query: cascade → detect survivors → exact predicate.
    Select {
        /// `None` runs brute force (every frame escalates).
        backend: Option<usize>,
        query: Query,
        /// The cascade, compiled into `backend`'s atom table: the statement
        /// passes a frame when all of these hold. Empty for brute force.
        atoms: Box<[AtomId]>,
        /// The predicates, compiled into the plan's [`ExactTable`]: a
        /// detected frame matches when all of these hold.
        exact: Box<[u32]>,
        survivors: usize,
        /// Online drift monitor (audit channel + rolling recalibration);
        /// `None` keeps the one-shot committed plan forever.
        drift: Option<DriftMonitor>,
    },
    /// A windowed aggregate: window-wide indicators → per-window estimation.
    Aggregate {
        backends: Vec<usize>,
        /// Per listed backend: the query's control-variate indicators,
        /// compiled into that backend's atom table.
        indicators: Vec<Box<[IndicatorId]>>,
        estimator: &'a mut dyn WindowEstimator,
        /// Per listed backend, its indicator columns from stream offset
        /// `indicator_start` onwards. The frames themselves live once in the
        /// plan's shared stream buffer, not per query.
        columns: Vec<WindowBackendColumns>,
        indicator_start: usize,
        next_window_start: usize,
        /// Timestamp the next time-based window starts at (seconds mode).
        next_window_time: f64,
        window_index: usize,
        size: usize,
        advance: usize,
        /// Time-based `(size, advance)` in seconds; overrides the
        /// frame-count fields when set (see [`AggregateSpec::seconds`]).
        seconds: Option<(f64, f64)>,
        estimation_frames: u64,
        calibration_frames: u64,
        sink_wall_ms: f64,
    },
}

/// One registered query of a [`SharedStreamPlan`]: its private
/// as-if-isolated ledger plus the per-query execution state.
struct SharedQueryState<'a> {
    name: String,
    mode_label: String,
    ledger: CostLedger,
    /// Pre-pass `calibrate` pseudo-operator row (adaptive registrations).
    calibration: Option<StageMetrics>,
    matched: Vec<u64>,
    kind: SharedQueryKind<'a>,
}

/// A compiled *shared* physical plan: N queries, one stream pass.
///
/// Backends are registered once and referenced by index; every query
/// (select or aggregate) that names a backend consumes the **same** shared
/// inference — the filter runs once per `(backend, frame)` and per-query
/// tolerance checks / indicator rows fan out from the shared
/// [`FilterEstimate`]s. The expensive detector runs once per frame in the
/// union any select query escalates (plus whatever aggregate estimators
/// sample), deduplicated through the [`DetectionCache`](vmq_detect::DetectionCache)
/// and sharded across `workers` pool tasks with a deterministic,
/// position-keyed merge; learned backends' network decode shards across the
/// whole machine ([`SharedStreamPlan::with_workers`]).
///
/// The fan-out itself is shared too. Registration compiles each statement's
/// cascade into ids in its backend's [`AtomTable`], keyed by what a check
/// depends on, so the statements of a family built from a few count and
/// spatial predicates share a few atoms; per batch each backend's table is
/// evaluated once per frame and a select's decisions over the batch are an
/// AND of its atoms' frame bit-words. Exact predicates are interned the same
/// way, per plan and keyed by their resolved region box, and evaluated at
/// most once per detected frame.
///
/// Cost accounting is two-tier: each query's private [`CostLedger`] is
/// charged exactly as an isolated run would charge it (so per-query
/// [`QueryRun`]s — matches, detector counts, virtual time — are
/// bit-identical to isolated execution), while the `global` ledger charges
/// shared work once and splits it across consumers via
/// [`CostLedger::charge_shared`] / [`CostLedger::attribute`].
pub struct SharedStreamPlan<'a> {
    detector: &'a dyn Detector,
    cache: vmq_detect::DetectionCache,
    global: CostLedger,
    config: PipelineConfig,
    workers: usize,
    backends: Vec<&'a dyn FrameFilter>,
    /// Per backend: the compiled atoms of every statement reading it.
    atoms: Vec<AtomTable>,
    /// The distinct exact predicates of every select.
    exact: ExactTable,
    queries: Vec<SharedQueryState<'a>>,
    /// Global attribution user id per query (parallel to `queries`).
    /// Identity by default; a fleet scheduler running many plans against
    /// one shared cache/ledger re-addresses each statement via
    /// [`SharedStreamPlan::alias_user`] so fleet-wide attribution stays
    /// per-statement exact.
    user_ids: Vec<usize>,
    /// One shared window buffer for every aggregate query (frames are
    /// cloned once per batch, not once per aggregate); rows before
    /// `stream_start` — no longer reachable by any window — are evicted.
    stream_frames: Vec<Frame>,
    stream_start: usize,
    /// In-flight incremental pass (`push_batch`/`finish`), if any.
    exec: Option<ExecState>,
}

impl<'a> SharedStreamPlan<'a> {
    /// Creates an empty shared plan. `global` is the ledger shared work is
    /// charged to (once per deduplicated unit); `cache` carries detections
    /// across queries — pass a fresh cache for an isolated pass, or a shared
    /// clone to extend deduplication across plans.
    pub fn new(
        detector: &'a dyn Detector,
        cache: vmq_detect::DetectionCache,
        global: CostLedger,
        config: PipelineConfig,
    ) -> Self {
        SharedStreamPlan {
            detector,
            cache,
            global,
            // `batch_size` is a public field, so a literal can bypass
            // `PipelineConfig::with_batch_size`'s clamp.
            config: PipelineConfig::with_batch_size(config.batch_size),
            workers: 1,
            backends: Vec::new(),
            atoms: Vec::new(),
            exact: ExactTable::default(),
            queries: Vec::new(),
            user_ids: Vec::new(),
            stream_frames: Vec::new(),
            stream_start: 0,
            exec: None,
        }
    }

    /// Sets the worker count the detect stage shards over (clamped to at
    /// least one; default 1), which backends that read no raster are also
    /// handed. A backend whose network reads a raster decodes over
    /// [`vmq_exec::parallelism`] tasks, or over `workers` if that is wider:
    /// its per-frame inference pays for a pool scope, while a µs-scale
    /// detection or calibrated estimate does not. Results are bit-identical
    /// for any value — detections and filter inference are pure per-frame
    /// functions (the calibrated backend keeps its noise stream sequential)
    /// and the merges are position-keyed — so this is purely a wall-clock
    /// knob.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Registers a filter backend and returns its index. Queries referencing
    /// the same index share one inference pass; callers must register one
    /// backend per *distinct stochastic stream* (identically-seeded filter
    /// instances are interchangeable, so one registration serves them all).
    pub fn add_backend(&mut self, filter: &'a dyn FrameFilter) -> usize {
        self.backends.push(filter);
        self.atoms.push(AtomTable::new());
        self.backends.len() - 1
    }

    /// Registers a select query with a fixed cascade over `backend` (`None`
    /// = brute force) and a private `ledger` charged as if the query ran in
    /// isolation. Returns the query's index — the `user` id of all shared
    /// cost attribution.
    pub fn register_select(
        &mut self,
        query: Query,
        cascade: CascadeConfig,
        backend: Option<usize>,
        ledger: CostLedger,
    ) -> usize {
        let mode_label = match backend {
            Some(b) => cascade.label_for(&query, self.backends[b]),
            None => "brute-force".to_string(),
        };
        self.register_select_with(query, cascade, backend, ledger, mode_label, None)
    }

    /// Like [`SharedStreamPlan::register_select`] with an explicit mode
    /// label and an optional pre-pass `calibrate` stage-metrics row (the
    /// adaptive planner's calibration bill, already charged to `ledger`).
    pub fn register_select_with(
        &mut self,
        query: Query,
        cascade: CascadeConfig,
        backend: Option<usize>,
        ledger: CostLedger,
        mode_label: String,
        calibration: Option<StageMetrics>,
    ) -> usize {
        if let Some(b) = backend {
            assert!(b < self.backends.len(), "unknown backend index {b}");
        }
        let atoms = self.compile_select(&query, cascade, backend);
        let exact = self.exact.compile(&query);
        self.queries.push(SharedQueryState {
            name: query.name.clone(),
            mode_label,
            ledger,
            calibration,
            matched: Vec::new(),
            kind: SharedQueryKind::Select { backend, query, atoms, exact, survivors: 0, drift: None },
        });
        self.user_ids.push(self.queries.len() - 1);
        self.queries.len() - 1
    }

    /// Resolves a select's cascade to atom ids in its backend's table
    /// (brute force has no cascade to resolve).
    fn compile_select(&mut self, query: &Query, cascade: CascadeConfig, backend: Option<usize>) -> Box<[AtomId]> {
        backend
            .map_or_else(Box::default, |b| self.atoms[b].compile_select(query, cascade, self.backends[b].threshold()))
    }

    /// Like [`SharedStreamPlan::register_select_with`], additionally
    /// attaching an online drift monitor: a seeded audit channel over
    /// filter-rejected frames, a sliding truth window over the listed
    /// candidate backends (the committed backend is always monitored), and
    /// mid-stream plan re-selection at batch boundaries via the adaptive
    /// planner. A disabled config (`audit_fraction = 0`) attaches no monitor
    /// at all, so execution is bit-identical to the one-shot registration.
    #[allow(clippy::too_many_arguments)]
    pub fn register_select_drifted(
        &mut self,
        query: Query,
        cascade: CascadeConfig,
        backend: Option<usize>,
        ledger: CostLedger,
        mode_label: String,
        calibration: Option<StageMetrics>,
        setup: DriftSetup,
    ) -> usize {
        for &b in &setup.candidate_backends {
            assert!(b < self.backends.len(), "unknown candidate backend index {b}");
        }
        let q = self.register_select_with(query, cascade, backend, ledger, mode_label, calibration);
        if setup.config.enabled() {
            let state = &mut self.queries[q];
            let label = state.mode_label.clone();
            let SharedQueryKind::Select { drift, .. } = &mut state.kind else { unreachable!() };
            *drift = Some(DriftMonitor::new(setup, backend, cascade, label));
        }
        q
    }

    /// Registers a windowed-aggregate query over the listed backends (its
    /// candidate control-variate columns, in order) with a private `ledger`.
    /// The estimator receives every completed hopping window (partial
    /// trailing windows never emit); its sampled detector work is routed
    /// through a
    /// [`CachedDetector`](vmq_detect::CachedDetector) over the plan's cache,
    /// so it participates in the shared dedup.
    pub fn register_aggregate(
        &mut self,
        query: Query,
        spec: AggregateSpec,
        backends: &[usize],
        estimator: &'a mut dyn WindowEstimator,
        ledger: CostLedger,
    ) -> usize {
        let (size, advance) = spec.window;
        if spec.seconds.is_none() {
            assert!(size > 0, "aggregate window size must be positive");
            assert!(advance > 0, "aggregate window advance must be positive");
        }
        assert!(!backends.is_empty(), "aggregate queries need at least one backend");
        for &b in backends {
            assert!(b < self.backends.len(), "unknown backend index {b}");
        }
        let indicators = backends
            .iter()
            .map(|&b| {
                let threshold = spec.indicator_threshold.unwrap_or_else(|| self.backends[b].threshold());
                self.atoms[b].compile_indicators(&query, spec.cascade, threshold)
            })
            .collect();
        let columns = backends
            .iter()
            .map(|&b| WindowBackendColumns {
                backend: self.backends[b].kind().name(),
                stage: self.backends[b].kind().stage(),
                pass: Vec::new(),
                predicates: Vec::new(),
            })
            .collect();
        let names: Vec<&str> = backends.iter().map(|&b| self.backends[b].kind().name()).collect();
        let mode_label = match spec.seconds {
            Some((s, a)) => format!("aggregate {} window {s}s/{a}s", names.join("+")),
            None => format!("aggregate {} window {size}/{advance}", names.join("+")),
        };
        self.queries.push(SharedQueryState {
            name: query.name.clone(),
            mode_label,
            ledger,
            calibration: None,
            matched: Vec::new(),
            kind: SharedQueryKind::Aggregate {
                backends: backends.to_vec(),
                indicators,
                estimator,
                columns,
                indicator_start: 0,
                next_window_start: 0,
                next_window_time: 0.0,
                window_index: 0,
                size,
                advance,
                seconds: spec.seconds,
                estimation_frames: 0,
                calibration_frames: 0,
                sink_wall_ms: 0.0,
            },
        });
        self.user_ids.push(self.queries.len() - 1);
        self.queries.len() - 1
    }

    /// The detection cache (clones share state; inspect after execution for
    /// hit/miss accounting).
    pub fn cache(&self) -> &vmq_detect::DetectionCache {
        &self.cache
    }

    /// Re-addresses query `q`'s *global* attribution — shared-ledger charge
    /// splits, cache consumer sets, sampled-detector dedup — to
    /// `global_id`. A fleet scheduler driving many per-camera plans against
    /// one shared cache and ledger assigns each statement a fleet-unique id
    /// so per-statement attribution never collides across plans. Identity
    /// by default; private ledgers and per-query results are untouched, so
    /// aliasing cannot change any statement's outcome.
    ///
    /// Must be called before the first [`SharedStreamPlan::push_batch`].
    pub fn alias_user(&mut self, q: usize, global_id: usize) {
        assert!(self.exec.is_none(), "alias users before pushing batches");
        self.user_ids[q] = global_id;
    }

    /// The global attribution user ids, indexed by query (identity unless
    /// [`SharedStreamPlan::alias_user`]ed).
    pub fn user_ids(&self) -> &[usize] {
        &self.user_ids
    }

    /// Maps local query indices to global attribution user ids.
    fn uids(&self, qs: &[usize]) -> Vec<usize> {
        qs.iter().map(|&q| self.user_ids[q]).collect()
    }

    /// Propagates an overload shed level to every registered aggregate
    /// estimator (see [`WindowEstimator::set_shed_level`]): level 0 is
    /// normal operation, higher levels shed detector *sampling* work so
    /// aggregates degrade gracefully (wider confidence intervals). Select
    /// queries are untouched — certified filter recall is never shed.
    pub fn set_shed_level(&mut self, level: u32) {
        for state in &mut self.queries {
            if let SharedQueryKind::Aggregate { estimator, .. } = &mut state.kind {
                estimator.set_shed_level(level);
            }
        }
    }

    /// Executes the shared pass over an in-memory slice of frames, in
    /// batches of [`PipelineConfig::batch_size`], and returns one
    /// [`QueryRun`] per registered query (registration order). Each run is
    /// bit-identical — matched frames, detector counts, virtual time — to
    /// executing that query alone on a plan of one; wall-clock columns report
    /// the *shared* phase times instead of per-query ones. Afterwards the
    /// global ledger carries the deduplicated bill with per-query attribution
    /// settled (detections split equally among each frame's users).
    pub fn execute_slice(&mut self, frames: &[Frame]) -> Vec<QueryRun> {
        for batch in frames.chunks(self.config.batch_size) {
            self.push_batch(batch);
        }
        self.finish()
    }

    /// Builds the incremental execution state on the first pushed batch.
    fn ensure_exec(&mut self) {
        if self.exec.is_some() {
            return;
        }
        assert!(!self.queries.is_empty(), "register at least one query before executing");
        // Backend → the queries consuming its shared inference.
        let mut backend_users: Vec<Vec<usize>> = vec![Vec::new(); self.backends.len()];
        for (q, state) in self.queries.iter().enumerate() {
            match &state.kind {
                SharedQueryKind::Select { backend, drift, .. } => {
                    if let Some(b) = backend {
                        backend_users[*b].push(q);
                    }
                    // Drift candidates stay warm: the monitor consumes every
                    // monitored backend's shared inference each batch, so the
                    // per-batch bill is constant across replans.
                    if let Some(monitor) = drift {
                        for &b in monitor.monitored_backends() {
                            if !backend_users[b].contains(&q) {
                                backend_users[b].push(q);
                            }
                        }
                    }
                }
                SharedQueryKind::Aggregate { backends, .. } => {
                    for &b in backends {
                        if !backend_users[b].contains(&q) {
                            backend_users[b].push(q);
                        }
                    }
                }
            }
        }
        // Backends whose networks read equal rasters share one render per
        // frame; the groups are fixed for the pass.
        let mut decode_groups: Vec<Vec<usize>> = Vec::new();
        for b in (0..self.backends.len()).filter(|&b| !backend_users[b].is_empty()) {
            let raster = self.backends[b].raster();
            let shared =
                raster.and_then(|r| decode_groups.iter_mut().find(|g| self.backends[g[0]].raster() == Some(r)));
            match shared {
                Some(group) => group.push(b),
                None => decode_groups.push(vec![b]),
            }
        }
        self.exec = Some(ExecState {
            all_users: (0..self.queries.len()).collect(),
            backend_users,
            decode_groups,
            frames_total: 0,
            wall: SharedWall::default(),
            backend_wall: vec![0.0; self.backends.len()],
        });
    }

    /// Pushes one batch of frames through every phase of the shared pass —
    /// the incremental entry point a fleet scheduler interleaves across
    /// many per-camera plans, and what [`SharedStreamPlan::execute_slice`]
    /// does per chunk (including drift-replan consultation at the batch
    /// boundary); call [`SharedStreamPlan::finish`] to settle attribution and
    /// collect the per-query runs.
    pub fn push_batch(&mut self, frames: &[Frame]) {
        let pending = self.prepare_batch(frames);
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `detect_ms` wall attribution stat.
        let start = Instant::now();
        let detections = self.detect_pending(&pending);
        let detect_ms = start.elapsed().as_secs_f64() * 1000.0;
        self.complete_batch(pending, detections, detect_ms);
    }

    /// First half of [`SharedStreamPlan::push_batch`]: runs the cheap shared
    /// phases (decode charge, backend inference, per-query fan-out) and the
    /// detection-cache probe, returning a [`PreparedBatch`] whose `missing`
    /// frames still need the detector. A fleet scheduler uses this to gather
    /// detector work from many per-camera plans before dispatching it as one
    /// coalesced batch; `push_batch` is exactly
    /// `prepare_batch` → [`SharedStreamPlan::detect_pending`] →
    /// [`SharedStreamPlan::complete_batch`].
    pub fn prepare_batch<'f>(&mut self, frames: &'f [Frame]) -> PreparedBatch<'f> {
        self.ensure_exec();
        let mut st = self.exec.take().expect("exec state built");
        st.frames_total += frames.len();
        let pending = self.process_batch_pre(frames, &mut st);
        self.exec = Some(st);
        pending
    }

    /// Detects a prepared batch's missing frames, sharded across the
    /// persistent pool — the detector work `push_batch` would have run
    /// inline. Results are keyed by the pending batch's missing positions.
    pub fn detect_pending(&self, pending: &PreparedBatch<'_>) -> Vec<FrameDetections> {
        self.detect_sharded(pending.frames, &pending.missing)
    }

    /// Second half of [`SharedStreamPlan::push_batch`]: installs the
    /// detections for the pending batch's missing frames (cache insert plus
    /// same-batch sharing, exactly as the inline path), charges the global
    /// ledger once per fresh frame, runs per-query exact evaluation and
    /// window emission, and consults the drift monitors at the batch
    /// boundary. `detections` must hold one entry per missing frame in
    /// order; `detect_wall_ms` is the wall time the caller spent producing
    /// them (a coalescing scheduler passes this plan's share).
    pub fn complete_batch(
        &mut self,
        pending: PreparedBatch<'_>,
        detections: Vec<FrameDetections>,
        detect_wall_ms: f64,
    ) {
        let mut st = self.exec.take().expect("prepare_batch before complete_batch");
        st.wall.detect_ms += detect_wall_ms;
        self.process_batch_post(pending, detections, &mut st.wall);
        let frames_total = st.frames_total;
        self.exec = Some(st);
        // Batch boundaries are the plan-swap points: consult every drift
        // monitor whose audit evidence warrants a replan.
        self.maybe_replan(frames_total);
    }

    /// Ends an incremental pass: settles the cache's detector attribution
    /// on the global ledger and returns one [`QueryRun`] per registered
    /// query (registration order), exactly as
    /// [`SharedStreamPlan::execute_slice`] would have. The pass state is consumed; a subsequent `push_batch`
    /// starts a fresh pass over the same registrations.
    pub fn finish(&mut self) -> Vec<QueryRun> {
        // Settle the detector attribution: every cached frame's single
        // global charge splits equally among the queries that used it.
        self.cache.attribute_detections(&self.global, self.detector.stage());
        self.finish_unsettled()
    }

    /// [`SharedStreamPlan::finish`] without the attribution settlement, for
    /// a scheduler that runs many plans against one cache and global ledger:
    /// settling walks the whole cache, so such a scheduler finishes every
    /// plan through this and settles once
    /// ([`DetectionCache::attribute_detections`](vmq_detect::DetectionCache::attribute_detections)).
    pub fn finish_unsettled(&mut self) -> Vec<QueryRun> {
        self.ensure_exec();
        let st = self.exec.take().expect("exec state built");
        self.finalize(st.frames_total, &st.wall, &st.backend_wall)
    }

    /// Phases 1–3 of the shared pass plus the detection-cache probe: decode
    /// charges, shared backend inference, per-query fan-out (escalations,
    /// indicator rows, drift observation) and the per-frame cache lookups
    /// that decide which escalated frames still need the detector.
    fn process_batch_pre<'f>(&mut self, frames: &'f [Frame], st: &mut ExecState) -> PreparedBatch<'f> {
        let n = frames.len();
        let wall = &mut st.wall;
        // Phase 1 — decode: once globally, split across every query (global
        // charges address queries by their fleet-global user ids); each
        // private ledger pays the full batch (as isolated).
        self.global.charge_shared(Stage::Decode, n as u64, &self.uids(&st.all_users));
        for state in &self.queries {
            state.ledger.charge(Stage::Decode, n as u64);
        }

        // Phase 2 — shared backend inference, billed once per (backend,
        // frame) ...
        for (b, users) in st.backend_users.iter().enumerate().filter(|(_, users)| !users.is_empty()) {
            let stage = self.backends[b].kind().stage();
            self.global.charge_shared(stage, n as u64, &self.uids(users));
            for &q in users {
                self.queries[q].ledger.charge(stage, n as u64);
            }
        }
        // ... and run once per decode group, which renders each frame once
        // for all of its backends; on the heels of each backend's estimates
        // comes the one evaluation of its atom table: every distinct cascade
        // atom and indicator, once per frame.
        let mut estimates: Vec<Option<Vec<FilterEstimate>>> = vec![None; self.backends.len()];
        let mut verdicts: Vec<Option<AtomVerdicts>> = self.backends.iter().map(|_| None).collect();
        for group in &st.decode_groups {
            // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only
            // the per-backend wall attribution stat; estimates and charges
            // are already fixed.
            let start = Instant::now();
            // A group's backends all read one raster or (alone) none, so the
            // first one names the group's width.
            let workers = self.network_width(group[0]).unwrap_or(self.workers);
            // A group of one runs the backend's own batch path, which for a
            // learned filter is the decode step over itself; a backend that
            // reads no raster is always alone.
            if let [b] = group[..] {
                let batch = self.backends[b].estimate_batch_sharded(frames, workers);
                verdicts[b] = Some(self.atoms[b].evaluate(&batch));
                estimates[b] = Some(batch);
            } else {
                let filters: Vec<&dyn FrameFilter> = group.iter().map(|&b| self.backends[b]).collect();
                for (&b, batch) in group.iter().zip(vmq_filters::estimate_shared(&filters, frames, workers)) {
                    verdicts[b] = Some(self.atoms[b].evaluate(&batch));
                    estimates[b] = Some(batch);
                }
            }
            let share_ms = start.elapsed().as_secs_f64() * 1000.0 / group.len() as f64;
            for &b in group {
                st.backend_wall[b] += share_ms;
            }
        }

        // Phase 3 — per-query fan-out from the shared verdicts: a select
        // escalates the frames on which all of its atoms hold, aggregates
        // read their indicator rows. The frames themselves are buffered once
        // for all aggregates.
        if self.queries.iter().any(|state| matches!(state.kind, SharedQueryKind::Aggregate { .. })) {
            self.stream_frames.extend(frames.iter().cloned());
        }
        let mut escalations = Subscribers::new(n, self.queries.len());
        // Escalations the audit channel added: detected like survivors, but
        // billed through the ledger's audit phase and fed back to the drift
        // monitor as ground truth.
        let mut audits = Subscribers::new(n, self.queries.len());
        // A select's passing frames as bit-words, reused across statements.
        let mut pass = Vec::new();
        for (q, state) in self.queries.iter_mut().enumerate() {
            match &mut state.kind {
                SharedQueryKind::Select { backend, atoms, survivors, drift, .. } => {
                    match backend {
                        None => {
                            pass.clear();
                            pass.extend(frame_words(n));
                        }
                        Some(b) => verdicts[*b]
                            .as_ref()
                            .expect("backend inference ran for its users")
                            .pass_words(atoms, &mut pass),
                    }
                    *survivors += escalate(q, &pass, frames, drift.as_ref(), &mut escalations, &mut audits);
                    if let Some(monitor) = drift.as_mut() {
                        let monitored: Vec<usize> = monitor.monitored_backends().to_vec();
                        for (i, frame) in frames.iter().enumerate() {
                            let row: Vec<FilterEstimate> = monitored
                                .iter()
                                .map(|&mb| estimates[mb].as_ref().expect("monitored backend inference ran")[i].clone())
                                .collect();
                            monitor.observe(frame, row, pass[i / 64] >> (i % 64) & 1 == 1);
                        }
                    }
                }
                SharedQueryKind::Aggregate { backends, indicators, columns, .. } => {
                    for ((&b, ids), column) in backends.iter().zip(indicators.iter()).zip(columns.iter_mut()) {
                        let verdicts = verdicts[b].as_ref().expect("backend inference ran for its users");
                        for i in 0..n {
                            column.push_controls(ids.iter().map(|&id| verdicts.indicator(i, id)));
                        }
                    }
                }
            }
        }

        // Phase 4 (first half) — probe the deduplicated detection cache:
        // frames already annotated resolve here (recording every escalator
        // as a sharing user); the rest become the batch's missing set.
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `detect_ms` wall attribution stat.
        let start = Instant::now();
        let mut resolved: Vec<Option<std::sync::Arc<FrameDetections>>> = vec![None; n];
        let mut missing: Vec<usize> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let mut users = escalations.of(i).map(|q| self.user_ids[q]).peekable();
            if users.peek().is_none() {
                continue;
            }
            match self.cache.get_for(frame, users) {
                Some(hit) => resolved[i] = Some(hit),
                None => missing.push(i),
            }
        }
        wall.detect_ms += start.elapsed().as_secs_f64() * 1000.0;
        PreparedBatch { frames, escalations, audits, resolved, missing }
    }

    /// Detection install plus phases 5–6 of the shared pass, given the
    /// detector results for a prepared batch's missing frames.
    fn process_batch_post(
        &mut self,
        pending: PreparedBatch<'_>,
        detections: Vec<FrameDetections>,
        wall: &mut SharedWall,
    ) {
        let PreparedBatch { frames, escalations, audits, mut resolved, missing } = pending;
        assert_eq!(detections.len(), missing.len(), "one detection per missing frame");

        // Phase 4 (second half) — install the fresh detections: one global
        // charge per fresh frame (private ledgers pay per query in the
        // evaluation phase) and one cache insert on behalf of all its
        // escalators — a miss for the first, recorded hits for the rest, so
        // same-batch sharing counts as cache hits exactly like cross-batch
        // sharing does.
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `detect_ms` wall attribution stat.
        let start = Instant::now();
        if !missing.is_empty() {
            self.global.charge(self.detector.stage(), missing.len() as u64);
            for (i, d) in missing.into_iter().zip(detections) {
                let arc = std::sync::Arc::new(d);
                let users = escalations.of(i).map(|q| self.user_ids[q]);
                self.cache.insert_for(&frames[i], std::sync::Arc::clone(&arc), users);
                resolved[i] = Some(arc);
            }
        }
        wall.detect_ms += start.elapsed().as_secs_f64() * 1000.0;

        // Phase 5 — exact evaluation on the shared annotations, for exactly
        // the subscribers of each frame, each distinct predicate at most once
        // per frame; each private ledger pays its own escalations in full.
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `eval_ms` wall attribution stat.
        let start = Instant::now();
        let mut detected = vec![0u64; self.queries.len()];
        let mut audited = vec![0u64; self.queries.len()];
        let mut memo = self.exact.memo();
        for (i, frame) in frames.iter().enumerate() {
            memo.fill(None);
            for q in escalations.of(i) {
                let SharedQueryState { kind, matched, .. } = &mut self.queries[q];
                let SharedQueryKind::Select { exact, drift, .. } = kind else { unreachable!("only selects escalate") };
                if audits.contains(i, q) {
                    audited[q] += 1;
                } else {
                    detected[q] += 1;
                }
                let detections = resolved[i].as_ref().expect("escalated frames are detected");
                let truth = self.exact.matches(exact, detections, &mut memo);
                if truth {
                    // Audit sentinels double as corrections: a true frame the
                    // committed plan rejected still reaches the result set.
                    matched.push(frame.frame_id);
                }
                if let Some(monitor) = drift.as_mut() {
                    monitor.record_truth(frame.frame_id, truth);
                }
            }
        }
        let detector_stage = self.detector.stage();
        for (state, (&detected, &audited)) in self.queries.iter_mut().zip(detected.iter().zip(&audited)) {
            if detected > 0 {
                state.ledger.charge(detector_stage, detected);
            }
            if audited > 0 {
                state.ledger.charge_audit(detector_stage, audited);
                if let SharedQueryKind::Select { drift: Some(monitor), .. } = &mut state.kind {
                    monitor.note_audited(audited);
                }
            }
        }
        wall.eval_ms += start.elapsed().as_secs_f64() * 1000.0;

        // Phase 6 — aggregate sinks emit every completed hopping window.
        self.emit_ready_windows();
    }

    /// Consults every drift monitor at a batch boundary (`stream_offset`
    /// frames processed so far) and swaps committed plans where the audit
    /// evidence demands it: the known-truth window is replayed through the
    /// adaptive planner, and — on a swap — rejected window frames the new
    /// plan would have escalated are detected retroactively (catch-up
    /// repair, billed as audit work), which restores recall instead of
    /// merely stopping future misses.
    fn maybe_replan(&mut self, stream_offset: usize) {
        let detector_stage = self.detector.stage();
        let model = self.global.model().clone();
        for (q, state) in self.queries.iter_mut().enumerate() {
            let SharedQueryState { kind, matched, ledger, mode_label, .. } = state;
            let SharedQueryKind::Select { backend, query, atoms, exact, drift, .. } = kind else { continue };
            let Some(monitor) = drift.as_mut() else { continue };
            if !monitor.should_attempt() {
                continue;
            }
            let report = monitor.plan(query, &self.backends, detector_stage, &model);
            let choice = &report.choice;
            let new_backend =
                if choice.brute_force { None } else { Some(monitor.monitored_backends()[choice.backend_index]) };
            if monitor.committed() == (new_backend, choice.cascade) {
                // The planner re-affirmed the committed plan; the cooldown
                // was re-anchored and contradictions stay until new audit
                // evidence changes the window's verdict.
                continue;
            }
            // Catch-up repair over the still-windowed history.
            let targets = match new_backend {
                Some(b) => monitor.catchup_targets(
                    choice.backend_index,
                    &FilterCascade::new(query.clone(), choice.cascade),
                    self.backends[b].threshold(),
                ),
                None => monitor.catchup_targets_brute(),
            };
            let mut fresh = 0u64;
            let mut memo = self.exact.memo();
            for frame in &targets {
                let detections = match self.cache.get(frame, self.user_ids[q]) {
                    Some(hit) => hit,
                    None => {
                        fresh += 1;
                        let arc = std::sync::Arc::new(self.detector.detect(frame));
                        self.cache.insert(frame, std::sync::Arc::clone(&arc), self.user_ids[q]);
                        arc
                    }
                };
                memo.fill(None);
                let truth = self.exact.matches(exact, &detections, &mut memo);
                if truth {
                    matched.push(frame.frame_id);
                }
                monitor.record_catchup(frame.frame_id, truth);
            }
            if fresh > 0 {
                self.global.charge(detector_stage, fresh);
            }
            if !targets.is_empty() {
                ledger.charge_audit(detector_stage, targets.len() as u64);
            }
            // Commit the swap: subsequent batches run the new plan, whose
            // cascade resolves to atoms of the new backend's table.
            let label = choice.label.clone();
            *mode_label = format!("adaptive {label}");
            monitor.commit(new_backend, choice.cascade, label, stream_offset, choice.expected_cost);
            *backend = new_backend;
            *atoms = new_backend.map_or_else(Box::default, |b| {
                self.atoms[b].compile_select(query, choice.cascade, self.backends[b].threshold())
            });
        }
    }

    /// The width backend `b`'s network decode shards its frames over: the
    /// whole machine ([`vmq_exec::parallelism`]), or `workers` if that is
    /// wider. Per-frame inference (tens to hundreds of µs) pays for a pool
    /// scope many times over. `None` for a backend that reads no raster,
    /// such as the calibrated filter, whose µs-scale estimates cost less
    /// than a scope.
    fn network_width(&self, b: usize) -> Option<usize> {
        self.backends[b].raster().map(|_| self.workers.max(vmq_exec::parallelism()))
    }

    /// Runs the detector over `missing` (batch positions), chunked across
    /// the persistent worker pool. The output is keyed by position, so the
    /// merge — and with the per-frame detector, every detection — is
    /// identical for any worker count.
    fn detect_sharded(&self, frames: &[Frame], missing: &[usize]) -> Vec<FrameDetections> {
        let detector = self.detector;
        vmq_exec::shard_map(missing, self.workers, |part| part.iter().map(|&i| detector.detect(&frames[i])).collect())
    }

    /// Hands every completed hopping window of every aggregate query to its
    /// estimator (the `HoppingWindow::windows` semantics: partial trailing
    /// windows never emit), charging the reported detector work to the
    /// query's private ledger.
    fn emit_ready_windows(&mut self) {
        let detector_stage = self.detector.stage();
        for (q, state) in self.queries.iter_mut().enumerate() {
            let SharedQueryState { kind, ledger, .. } = state;
            let SharedQueryKind::Aggregate {
                estimator,
                columns,
                indicator_start,
                next_window_start,
                next_window_time,
                window_index,
                size,
                advance,
                seconds,
                estimation_frames,
                calibration_frames,
                sink_wall_ms,
                ..
            } = kind
            else {
                continue;
            };
            // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only
            // the aggregate's `sink_wall_ms` stat; window boundaries come
            // from frame counts and frame timestamps.
            let start = Instant::now();
            loop {
                // The next completed window's frame range `flo..fhi`
                // (offsets into the shared stream buffer), or break when no
                // further window is complete. Frame-count windows complete
                // once `size` rows are buffered past their start; time
                // windows complete once a frame at or past their end
                // timestamp arrives (timestamps are monotone per stream).
                // Either way, a partial trailing window never emits.
                let (flo, fhi) = match *seconds {
                    None => {
                        if *next_window_start + *size > self.stream_start + self.stream_frames.len() {
                            break;
                        }
                        let flo = *next_window_start - self.stream_start;
                        (flo, flo + *size)
                    }
                    Some((size_s, _)) => {
                        let end = *next_window_time + size_s;
                        let Some(last) = self.stream_frames.last() else { break };
                        if last.timestamp < end {
                            break;
                        }
                        (
                            self.stream_frames.partition_point(|f| f.timestamp < *next_window_time),
                            self.stream_frames.partition_point(|f| f.timestamp < end),
                        )
                    }
                };
                if fhi > flo {
                    let lo = self.stream_start + flo - *indicator_start;
                    let hi = self.stream_start + fhi - *indicator_start;
                    let window_columns: Vec<WindowBackendColumns> =
                        columns.iter().map(|column| column.slice(lo..hi)).collect();
                    let window = WindowData {
                        index: *window_index,
                        start: self.stream_start + flo,
                        frames: &self.stream_frames[flo..fhi],
                        backends: &window_columns,
                    };
                    // The estimator samples through a cache-backed detector on
                    // behalf of this query: misses charge the global ledger
                    // inside the wrapper, while the private ledger is charged
                    // here with the full as-if-isolated bill.
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
                    *estimation_frames += charge.estimation_frames;
                    *calibration_frames += charge.calibration_frames;
                }
                // Empty time windows skip the estimator but keep their
                // index, so window k means the same wall-clock interval on
                // every camera.
                *window_index += 1;
                match *seconds {
                    None => *next_window_start += *advance,
                    Some((_, advance_s)) => {
                        *next_window_time += advance_s;
                        *next_window_start =
                            self.stream_start + self.stream_frames.partition_point(|f| f.timestamp < *next_window_time);
                    }
                }
            }
            let buffered = columns.first().map_or(0, |column| column.pass.len());
            let evict = next_window_start.saturating_sub(*indicator_start).min(buffered);
            if evict > 0 {
                for column in columns.iter_mut() {
                    column.drain_front(evict);
                }
                *indicator_start += evict;
            }
            *sink_wall_ms += start.elapsed().as_secs_f64() * 1000.0;
        }
        // Evict shared frames no aggregate's future window can reach.
        let min_needed = self
            .queries
            .iter()
            .filter_map(|state| match &state.kind {
                SharedQueryKind::Aggregate { next_window_start, .. } => Some(*next_window_start),
                SharedQueryKind::Select { .. } => None,
            })
            .min();
        if let Some(min_needed) = min_needed {
            let evict = min_needed.saturating_sub(self.stream_start).min(self.stream_frames.len());
            if evict > 0 {
                self.stream_frames.drain(..evict);
                self.stream_start += evict;
            }
        }
    }

    /// Builds the per-query [`QueryRun`]s: one stage row per operator of the
    /// statement's logical plan, virtual columns from its private ledger's
    /// prices and frame counts, wall columns from the shared phase times.
    fn finalize(&mut self, frames_total: usize, wall: &SharedWall, backend_wall: &[f64]) -> Vec<QueryRun> {
        let model = self.global.model().clone();
        let detector_stage = self.detector.stage();
        // A backend's row reports the width its inference ran on (the decode
        // width for a network, 1 for a backend that reads no raster) and the
        // kernels it ran.
        let backend_row = |operator: &str, b: usize, frames_out: usize| {
            let stage = Some(self.backends[b].kind().stage());
            StageMetrics {
                workers: self.network_width(b).unwrap_or(1),
                kernel_backend: Some(self.backends[b].kernel_backend().to_string()),
                ..StageMetrics::charged_row(
                    operator,
                    stage,
                    frames_total,
                    frames_out,
                    frames_total as u64,
                    &model,
                    backend_wall[b],
                )
            }
        };
        self.queries
            .iter()
            .map(|state| {
                let mut stage_metrics: Vec<StageMetrics> = state.calibration.iter().cloned().collect();
                let row = |operator: &str, stage: Option<Stage>, fin: usize, fout: usize, charged: u64, w: f64| {
                    StageMetrics::charged_row(operator, stage, fin, fout, charged, &model, w)
                };
                match &state.kind {
                    SharedQueryKind::Select { backend, survivors, drift, .. } => {
                        let survivors = *survivors;
                        let audit_frames = drift.as_ref().map_or(0, |m| m.audit_frames());
                        let detected = survivors + audit_frames as usize;
                        let mut matched_frames = state.matched.clone();
                        if drift.is_some() {
                            // Audit corrections and catch-up repair append out
                            // of stream order; restore it for reporting.
                            matched_frames.sort_unstable();
                        }
                        let matched = matched_frames.len();
                        stage_metrics.push(row(
                            "source",
                            Some(Stage::Decode),
                            frames_total,
                            frames_total,
                            frames_total as u64,
                            0.0,
                        ));
                        let mut filter_wall_ms = 0.0;
                        if let Some(b) = *backend {
                            filter_wall_ms = backend_wall[b];
                            stage_metrics.push(backend_row("cascade-filter", b, survivors));
                        }
                        // Candidate backends the drift monitor kept warm are
                        // billed every frame; report them as their own rows so
                        // the stage sum still equals the private ledger.
                        if let Some(monitor) = drift {
                            for &mb in monitor.monitored_backends() {
                                if Some(mb) == *backend {
                                    continue;
                                }
                                stage_metrics.push(backend_row("drift-monitor", mb, frames_total));
                            }
                        }
                        stage_metrics.push(StageMetrics {
                            workers: self.workers,
                            ..row("detect", Some(detector_stage), detected, detected, detected as u64, wall.detect_ms)
                        });
                        stage_metrics.push(row("predicate-eval", None, detected, matched, 0, wall.eval_ms));
                        stage_metrics.push(row("sink", None, matched, matched, 0, 0.0));
                        QueryRun {
                            query: state.name.clone(),
                            mode: state.mode_label.clone(),
                            matched_frames,
                            frames_total,
                            frames_passed_filter: if backend.is_some() { survivors } else { frames_total },
                            frames_detected: detected,
                            virtual_ms: state.ledger.total_ms(),
                            filter_wall_ms,
                            stage_metrics,
                            replans: drift.as_ref().map_or_else(Vec::new, |m| m.replans().to_vec()),
                            audit_frames,
                        }
                    }
                    SharedQueryKind::Aggregate {
                        backends,
                        estimation_frames,
                        calibration_frames,
                        sink_wall_ms,
                        ..
                    } => {
                        let detected = estimation_frames + calibration_frames;
                        stage_metrics.push(row(
                            "source",
                            Some(Stage::Decode),
                            frames_total,
                            frames_total,
                            frames_total as u64,
                            0.0,
                        ));
                        let mut filter_wall_ms = 0.0;
                        for &b in backends {
                            filter_wall_ms += backend_wall[b];
                            stage_metrics.push(backend_row("window-filter", b, frames_total));
                        }
                        stage_metrics.push(row(
                            "aggregate-sink",
                            Some(detector_stage),
                            frames_total,
                            frames_total,
                            detected,
                            *sink_wall_ms,
                        ));
                        QueryRun {
                            query: state.name.clone(),
                            mode: state.mode_label.clone(),
                            matched_frames: Vec::new(),
                            frames_total,
                            frames_passed_filter: frames_total,
                            frames_detected: detected as usize,
                            virtual_ms: state.ledger.total_ms(),
                            filter_wall_ms,
                            stage_metrics,
                            replans: Vec::new(),
                            audit_frames: 0,
                        }
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::QueryExecutor;
    use crate::plan::CascadeConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use vmq_detect::{DetectionCache, OracleDetector};
    use vmq_filters::{CalibratedFilter, CalibrationProfile};
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
            let mut est = RecordingEstimator {
                samples_per_window: 0,
                calibration_per_window: 0,
                windows: Vec::new(),
                pass_sums: Vec::new(),
            };
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
        let mut estimator = RecordingEstimator {
            samples_per_window: 10,
            calibration_per_window: 0,
            windows: Vec::new(),
            pass_sums: Vec::new(),
        };
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
            let mut estimator = RecordingEstimator {
                samples_per_window: 0,
                calibration_per_window: 0,
                windows: Vec::new(),
                pass_sums: Vec::new(),
            };
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
        let mut estimator = RecordingEstimator {
            samples_per_window: 5,
            calibration_per_window: 8,
            windows: Vec::new(),
            pass_sums: Vec::new(),
        };
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
        let mut estimator = RecordingEstimator {
            samples_per_window: 3,
            calibration_per_window: 0,
            windows: Vec::new(),
            pass_sums: Vec::new(),
        };
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

    /// Two overlapping selects on one backend: the filter runs once per
    /// frame, the detector once per frame in the escalation union, yet each
    /// query's run stays bit-identical to its isolated execution.
    #[test]
    fn shared_plan_dedupes_filter_and_detector_across_queries() {
        let (ds, _filter, oracle) = setup();
        let queries = [Query::paper_q3(), Query::paper_q4()];
        let isolated: Vec<QueryRun> = queries
            .iter()
            .map(|query| {
                let filter = fresh_filter(5);
                let exec = QueryExecutor::new(query.clone());
                exec.run_filtered(ds.test(), &filter, &oracle, CascadeConfig::tolerant())
            })
            .collect();

        let shared_filter = fresh_filter(5);
        let global = CostLedger::paper();
        let mut plan = SharedStreamPlan::new(
            &oracle,
            vmq_detect::DetectionCache::new(),
            global.clone(),
            PipelineConfig::default(),
        );
        let backend = plan.add_backend(&shared_filter);
        for query in &queries {
            plan.register_select(query.clone(), CascadeConfig::tolerant(), Some(backend), CostLedger::paper());
        }
        let runs = plan.execute_slice(ds.test());

        for (run, reference) in runs.iter().zip(&isolated) {
            assert_eq!(run.matched_frames, reference.matched_frames, "{}", reference.query);
            assert_eq!(run.frames_detected, reference.frames_detected, "{}", reference.query);
            assert_eq!(run.virtual_ms.to_bits(), reference.virtual_ms.to_bits(), "{}", reference.query);
        }
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

    /// The worker pool is a pure wall-clock knob: any worker count yields
    /// bit-identical runs and the same global dedup accounting.
    #[test]
    fn shared_plan_results_are_worker_count_invariant() {
        let (ds, _filter, oracle) = setup();
        let queries = [Query::paper_q3(), Query::paper_q4(), Query::paper_q5()];
        let mut baseline: Option<(Vec<QueryRun>, u64)> = None;
        for workers in [1usize, 2, 4] {
            let shared_filter = fresh_filter(11);
            let global = CostLedger::paper();
            let mut plan = SharedStreamPlan::new(
                &oracle,
                vmq_detect::DetectionCache::new(),
                global.clone(),
                PipelineConfig::with_batch_size(9),
            )
            .with_workers(workers);
            let backend = plan.add_backend(&shared_filter);
            for query in &queries {
                plan.register_select(query.clone(), CascadeConfig::strict(), Some(backend), CostLedger::paper());
            }
            let runs = plan.execute_slice(ds.test());
            let detected = global.invocations(Stage::MaskRcnn);
            match &baseline {
                None => baseline = Some((runs, detected)),
                Some((reference, ref_detected)) => {
                    assert_eq!(detected, *ref_detected, "workers {workers}");
                    for (run, r) in runs.iter().zip(reference) {
                        assert_eq!(run.matched_frames, r.matched_frames, "workers {workers}");
                        assert_eq!(run.virtual_ms.to_bits(), r.virtual_ms.to_bits(), "workers {workers}");
                    }
                }
            }
        }
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
        let mut reference_est = RecordingEstimator {
            samples_per_window: 4,
            calibration_per_window: 0,
            windows: Vec::new(),
            pass_sums: Vec::new(),
        };
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
        let mut shared_est = RecordingEstimator {
            samples_per_window: 4,
            calibration_per_window: 0,
            windows: Vec::new(),
            pass_sums: Vec::new(),
        };
        let mut plan = SharedStreamPlan::new(
            &oracle,
            vmq_detect::DetectionCache::new(),
            global.clone(),
            PipelineConfig::default(),
        );
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
        let atoms_of = |plan: &SharedStreamPlan<'_>| match &plan.queries[q].kind {
            SharedQueryKind::Select { backend, atoms, drift, .. } => {
                (*backend, atoms.clone(), drift.as_ref().expect("monitor attached").committed())
            }
            SharedQueryKind::Aggregate { .. } => unreachable!(),
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
            )
            .with_workers(2);
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
}
