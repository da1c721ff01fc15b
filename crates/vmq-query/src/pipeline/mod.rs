//! The batched stream executor.
//!
//! There is one executor, [`SharedStreamPlan`]: N select and aggregate
//! statements registered against **one** pass over a stream — and a single
//! statement ([`QueryExecutor`](crate::exec::QueryExecutor)) is the plan of
//! one. Frames arrive in batches of [`PipelineConfig::batch_size`] (chunked
//! from a slice by [`SharedStreamPlan::execute_slice`], or pushed one batch
//! at a time through [`SharedStreamPlan::push_batch`], as the
//! [`FleetRuntime`](crate::FleetRuntime) does) and every batch goes through
//! three calls, the first of them in two halves (`stage_batch`, which
//! touches only the plan's own state and may run on a pool thread, then the
//! serial `probe_batch`):
//!
//! ```text
//! prepare_batch                       detect_pending          complete_batch
//! 1 decode charge                     the detector over       4b install detections (cache insert,
//! 2 backend inference once per          the batch's missing      one global charge per fresh frame)
//!   (backend, frame) + one atom-       frames, on the         5 exact evaluation of each frame's
//!   table evaluation into per-atom      calling thread           subscribers: each distinct predicate
//!   frame bit-words                                              once per frame, a statement ANDs
//! 3 per-statement fan-out: a select                              its ids
//!   ANDs its atoms' words and walks                           6 aggregates emit completed hopping
//!   the set bits, aggregates append                              windows to their WindowEstimator
//!   indicator columns                                         · drift monitors replan at the batch
//! 4a detection-cache probe                                       boundary
//! ```
//!
//! Statements are grouped by filter backend so inference runs once per
//! `(backend, frame)`; every distinct cascade atom is evaluated once per
//! frame out of a per-backend [`AtomTable`] and fanned out to the statements
//! subscribing to it as a word `AND` over the batch; every distinct exact
//! predicate is evaluated at most once per detected frame; the expensive
//! detector is deduplicated through a [`DetectionCache`] (invoked once per
//! frame in the union any statement escalates). A select escalates the frames
//! its cascade passes (brute force: every frame) and keeps those whose
//! detections satisfy the query exactly. An aggregate (`WINDOW HOPPING`
//! statements, Sec. III) never drops a frame: the filter runs on *every*
//! frame (its window-wide indicator mean is what powers the control-variate
//! variance reduction) while the detector runs only on the frames the
//! estimator samples.
//!
//! Each phase charges its whole batch to the virtual-time [`CostLedger`] in
//! one call — byte-identical to per-frame charging because the ledger derives
//! totals from frame counts. Every statement keeps a private as-if-isolated
//! ledger while the global ledger charges shared work once and splits it in
//! a [`SharedCost`](vmq_detect::SharedCost) attribution, so a statement's
//! [`QueryRun`] is bit-identical whether it ran alone or among N others, and
//! for any decode width. A run reports per-operator [`StageMetrics`] rows
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
//!
//! Each file of this module owns one decision:
//!
//! * `mod.rs` — the plan, registration and the batch lifecycle: what a
//!   statement is, which statements pay for which backend, when a pass
//!   starts and ends.
//! * `operators.rs` — phases 1–5 and the drift replan: what runs on which
//!   frame, and who is billed for it.
//! * `window.rs` — the aggregate contract ([`AggregateSpec`],
//!   [`WindowEstimator`] and the types it is handed) and each aggregate's
//!   window state: where a hopping window starts and ends, in frames or in
//!   seconds, when it is emitted (phase 6) and what the plan may evict.
//! * `report.rs` — [`StageMetrics`] and the per-statement [`QueryRun`]s a
//!   pass ends with.

mod operators;
mod report;
mod tests;
mod window;

pub use operators::PreparedBatch;
pub(crate) use operators::StagedBatch;
pub use report::StageMetrics;
pub use window::{AggregateSpec, WindowBackendColumns, WindowCharge, WindowData, WindowEstimator};

use crate::ast::{ExactTable, Query};
use crate::drift::{DriftMonitor, DriftSetup};
use crate::exec::QueryRun;
use crate::plan::{AtomId, AtomTable, CascadeConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vmq_detect::{CostLedger, DetectionCache, Detector, FrameDetections};
use vmq_filters::FrameFilter;
use vmq_video::Frame;
use window::{Hop, Windows};

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
    /// Backend → the query indices consuming its inference, ascending.
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
    /// Per backend: the widest width any batch decoded it at.
    backend_width: Vec<usize>,
    /// Per backend: whether a drift monitor reads its estimates (everyone
    /// else reads only the atom verdicts).
    monitored: Vec<bool>,
}

/// What every registered statement carries, whatever its shape.
struct Statement {
    name: String,
    mode_label: String,
    /// The private ledger, charged as if the statement ran in isolation.
    ledger: CostLedger,
}

/// A registered frame-selection statement: cascade → detect survivors →
/// exact predicate.
struct Select {
    /// The statement's query index.
    q: usize,
    /// `None` runs brute force (every frame escalates).
    backend: Option<usize>,
    query: Query,
    /// The cascade, compiled into `backend`'s atom table: the statement
    /// passes a frame when all of these hold. Empty for brute force.
    atoms: Box<[AtomId]>,
    /// The predicates, compiled into the plan's [`ExactTable`]: a detected
    /// frame matches when all of these hold.
    exact: Box<[u32]>,
    survivors: usize,
    /// Online drift monitor (audit channel + rolling recalibration); `None`
    /// keeps the one-shot committed plan forever.
    drift: Option<DriftMonitor>,
    /// Pre-pass `calibrate` pseudo-operator row (adaptive registrations).
    calibration: Option<StageMetrics>,
    matched: Vec<u64>,
}

/// A compiled *shared* physical plan: N queries, one stream pass.
///
/// Backends are registered once and referenced by index; every query
/// (select or aggregate) that names a backend consumes the **same** shared
/// inference — the filter runs once per `(backend, frame)` and per-query
/// tolerance checks / indicator rows fan out from the shared
/// [`FilterEstimate`](vmq_filters::FilterEstimate)s. The expensive detector
/// runs once per frame in the union any select query escalates (plus
/// whatever aggregate estimators sample), deduplicated through the
/// [`DetectionCache`]. Widths are derived, not set: a learned backend's
/// network decode shards across the whole machine
/// ([`vmq_exec::parallelism`]) with a deterministic, position-keyed merge
/// (inline, on one thread, where a fleet poll stages the plan among
/// others), while a backend that reads no raster and the plan's own
/// [`SharedStreamPlan::detect_pending`] run on the calling thread.
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
    cache: DetectionCache,
    global: CostLedger,
    config: PipelineConfig,
    pub(crate) backends: Vec<&'a dyn FrameFilter>,
    /// Per backend: the compiled atoms of every statement reading it.
    atoms: Vec<AtomTable>,
    /// The distinct exact predicates of every select.
    exact: ExactTable,
    /// Every registered statement, by query index.
    queries: Vec<Statement>,
    /// Global attribution user id per query (parallel to `queries`).
    /// Identity by default; the fleet, running many plans against one
    /// shared cache and ledger, registers each statement under its
    /// fleet-unique id ([`SharedStreamPlan::register_as`]) so fleet-wide
    /// attribution stays per-statement exact.
    pub(crate) user_ids: Vec<usize>,
    /// The select statements, in registration order.
    selects: Vec<Select>,
    /// The aggregate statements and the stream frames their windows read.
    windows: Windows<'a>,
    /// In-flight incremental pass (`push_batch`/`finish`), if any.
    exec: Option<ExecState>,
    /// Set by `finish`: a plan runs one pass.
    finished: bool,
}

// The fleet stages its cameras' plans on pool threads. A field that
// is not `Send` fails here, next to its cause, not in the fleet, where the
// quick fix would be to stage the cameras on the caller again.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<SharedStreamPlan<'_>>();
};

impl<'a> SharedStreamPlan<'a> {
    /// Creates an empty shared plan. `global` is the ledger shared work is
    /// charged to (once per deduplicated unit); `cache` carries detections
    /// across queries — pass a fresh cache for an isolated pass, or a shared
    /// clone to extend deduplication across plans.
    pub fn new(detector: &'a dyn Detector, cache: DetectionCache, global: CostLedger, config: PipelineConfig) -> Self {
        SharedStreamPlan {
            detector,
            cache,
            global,
            // `batch_size` is a public field, so a literal can bypass
            // `PipelineConfig::with_batch_size`'s clamp.
            config: PipelineConfig::with_batch_size(config.batch_size),
            backends: Vec::new(),
            atoms: Vec::new(),
            exact: ExactTable::default(),
            queries: Vec::new(),
            user_ids: Vec::new(),
            selects: Vec::new(),
            windows: Windows::default(),
            exec: None,
            finished: false,
        }
    }

    /// Registers a filter backend and returns its index. Queries referencing
    /// the same index share one inference pass; callers must register one
    /// backend per *distinct stochastic stream* (identically-seeded filter
    /// instances are interchangeable, so one registration serves them all).
    ///
    /// Like every registration, must happen before the first
    /// [`SharedStreamPlan::push_batch`].
    pub fn add_backend(&mut self, filter: &'a dyn FrameFilter) -> usize {
        self.assert_no_pass();
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
        let q = self.register(query.name.clone(), mode_label, ledger);
        let atoms = backend
            .map_or_else(Box::default, |b| self.atoms[b].compile_select(&query, cascade, self.backends[b].threshold()));
        let exact = self.exact.compile(&query);
        let matched = Vec::new();
        self.selects.push(Select { q, backend, query, atoms, exact, survivors: 0, drift: None, calibration, matched });
        q
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
        let label = mode_label.clone();
        let q = self.register_select_with(query, cascade, backend, ledger, mode_label, calibration);
        if setup.config.enabled() {
            let select = self.selects.last_mut().expect("the select just registered");
            select.drift = Some(DriftMonitor::new(setup, backend, cascade, label));
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
        let hop = Hop::of(&spec);
        assert!(!backends.is_empty(), "aggregate queries need at least one backend");
        for &b in backends {
            assert!(b < self.backends.len(), "unknown backend index {b}");
        }
        let names: Vec<&str> = backends.iter().map(|&b| self.backends[b].kind().name()).collect();
        let q = self.register(query.name.clone(), format!("aggregate {} window {hop}", names.join("+")), ledger);
        let inputs = backends
            .iter()
            .map(|&b| {
                let threshold = spec.indicator_threshold.unwrap_or_else(|| self.backends[b].threshold());
                (b, self.backends[b].kind(), self.atoms[b].compile_indicators(&query, spec.cascade, threshold))
            })
            .collect();
        self.windows.register(q, hop, inputs, estimator);
        q
    }

    /// Adds a statement's shape-independent part and returns its index.
    fn register(&mut self, name: String, mode_label: String, ledger: CostLedger) -> usize {
        self.assert_no_pass();
        self.queries.push(Statement { name, mode_label, ledger });
        self.user_ids.push(self.queries.len() - 1);
        self.queries.len() - 1
    }

    /// A pass fixes at its first batch which statements pay for which
    /// backend's inference, so a registration during it would run unbilled.
    fn assert_no_pass(&self) {
        assert!(self.exec.is_none(), "register backends and statements before pushing batches");
    }

    /// The detection cache (clones share state; inspect after execution for
    /// hit/miss accounting).
    pub fn cache(&self) -> &DetectionCache {
        &self.cache
    }

    /// Registers one statement through `register` (one of the public
    /// registrations) with its *global* attribution — shared-ledger charge
    /// splits, cache consumer sets, sampled-detector dedup — addressed to
    /// `user` instead of its query index: the fleet, driving many per-camera
    /// plans against one cache and ledger, registers each statement under
    /// its fleet-unique id so attribution never collides across plans.
    /// Private ledgers and per-query results do not read the id, so it
    /// cannot change any statement's outcome.
    pub(crate) fn register_as(&mut self, user: usize, register: impl FnOnce(&mut Self) -> usize) {
        let q = register(self);
        self.user_ids[q] = user;
    }

    /// Propagates an overload shed level to every registered aggregate
    /// estimator (see [`WindowEstimator::set_shed_level`]): level 0 is
    /// normal operation, higher levels shed detector *sampling* work so
    /// aggregates degrade gracefully (wider confidence intervals). Select
    /// queries are untouched — certified filter recall is never shed.
    pub(crate) fn set_shed_level(&mut self, level: u32) {
        self.windows.set_shed_level(level);
    }

    /// Executes the shared pass over an in-memory slice of frames, in
    /// batches of [`PipelineConfig::batch_size`], and returns one
    /// [`QueryRun`] per registered query (registration order). Each run is
    /// bit-identical — matched frames, detector counts, virtual time — to
    /// executing that query alone on a plan of one; wall-clock columns report
    /// the *shared* phase times instead of per-query ones. Afterwards the
    /// global ledger carries the deduplicated bill with per-query attribution
    /// settled (detections split equally among each frame's users).
    ///
    /// A plan runs one pass: this ends it through
    /// [`SharedStreamPlan::finish`], so a second call panics.
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
        assert!(!self.finished, "a plan runs one pass");
        assert!(!self.queries.is_empty(), "register at least one query before executing");
        // Backend → the queries consuming its shared inference. Drift
        // candidates stay warm: the monitor consumes every monitored
        // backend's shared inference each batch, so the per-batch bill is
        // constant across replans.
        let mut backend_users: Vec<Vec<usize>> = vec![Vec::new(); self.backends.len()];
        let mut monitored = vec![false; self.backends.len()];
        for select in &self.selects {
            for &b in select.drift.iter().flat_map(DriftMonitor::monitored_backends) {
                monitored[b] = true;
                backend_users[b].push(select.q);
            }
            if let Some(b) = select.backend {
                backend_users[b].push(select.q);
            }
        }
        for aggregate in self.windows.aggregates() {
            for b in aggregate.backends() {
                backend_users[b].push(aggregate.q);
            }
        }
        for users in &mut backend_users {
            users.sort_unstable();
            users.dedup();
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
            backend_users,
            decode_groups,
            frames_total: 0,
            wall: SharedWall::default(),
            backend_wall: vec![0.0; self.backends.len()],
            backend_width: vec![1; self.backends.len()],
            monitored,
        });
    }

    /// Pushes one batch of frames through every phase of the shared pass —
    /// the incremental entry point, and what [`SharedStreamPlan::execute_slice`]
    /// does per chunk (including drift-replan consultation at the batch
    /// boundary); call [`SharedStreamPlan::finish`] to settle attribution and
    /// collect the per-query runs.
    pub fn push_batch(&mut self, frames: &[Frame]) {
        let staged = self.stage_batch(frames);
        self.push_staged(staged, frames);
    }

    /// The rest of [`SharedStreamPlan::push_batch`] for a batch
    /// [`SharedStreamPlan::stage_batch`] already staged over `frames`:
    /// [`SharedStreamPlan::probe_batch`] →
    /// [`SharedStreamPlan::detect_pending`] →
    /// [`SharedStreamPlan::complete_batch`]. Returns the number of frames
    /// the detector ran on.
    pub(crate) fn push_staged(&mut self, staged: StagedBatch, frames: &[Frame]) -> usize {
        let pending = self.probe_batch(staged, frames);
        let detected = pending.missing_len();
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `detect_ms` wall attribution stat.
        let start = Instant::now();
        let detections = self.detect_pending(&pending);
        let detect_ms = start.elapsed().as_secs_f64() * 1000.0;
        self.complete_batch(pending, detections, detect_ms);
        detected
    }

    /// First half of [`SharedStreamPlan::push_batch`]: runs the cheap shared
    /// phases (decode charge, backend inference, per-query fan-out) and the
    /// detection-cache probe, returning a [`PreparedBatch`] whose `missing`
    /// frames still need the detector. `push_batch` is exactly
    /// `prepare_batch` → [`SharedStreamPlan::detect_pending`] →
    /// [`SharedStreamPlan::complete_batch`].
    pub fn prepare_batch<'f>(&mut self, frames: &'f [Frame]) -> PreparedBatch<'f> {
        let staged = self.stage_batch(frames);
        self.probe_batch(staged, frames)
    }

    /// The per-plan half of [`SharedStreamPlan::prepare_batch`]: decode
    /// charge, backend inference and per-query fan-out. It reads no other
    /// plan's state and never touches the detection cache; of the shared
    /// global ledger it adds to the `u64` counts, which commute, and to this
    /// plan's users' attribution rows only. So the fleet, whose plans have
    /// fleet-unique users ([`SharedStreamPlan::register_as`]) and no
    /// stateful backend in common, may stage them at once, and while other
    /// plans complete, on any threads, with the same bits.
    pub(crate) fn stage_batch(&mut self, frames: &[Frame]) -> StagedBatch {
        self.ensure_exec();
        let mut st = self.exec.take().expect("exec state built");
        st.frames_total += frames.len();
        let staged = self.stage(frames, &mut st);
        self.exec = Some(st);
        staged
    }

    /// Second half of [`SharedStreamPlan::push_batch`]: installs the
    /// detections for the pending batch's missing frames (cache insert plus
    /// same-batch sharing, exactly as the inline path), charges the global
    /// ledger once per fresh frame, runs per-query exact evaluation and
    /// window emission, and consults the drift monitors at the batch
    /// boundary. `detections` must hold one entry per missing frame in
    /// order; `detect_wall_ms` is the wall time the caller spent producing
    /// them.
    pub fn complete_batch(
        &mut self,
        pending: PreparedBatch<'_>,
        detections: Vec<FrameDetections>,
        detect_wall_ms: f64,
    ) {
        let mut st = self.exec.take().expect("prepare_batch before complete_batch");
        st.wall.detect_ms += detect_wall_ms;
        self.complete(pending, detections, &mut st.wall);
        let frames_total = st.frames_total;
        self.exec = Some(st);
        // Phase 6 — aggregate sinks emit every completed hopping window.
        self.emit_ready_windows();
        // Batch boundaries are the plan-swap points: consult every drift
        // monitor whose audit evidence warrants a replan.
        self.maybe_replan(frames_total);
    }

    /// Ends an incremental pass: settles the cache's detector attribution
    /// on the global ledger and returns one [`QueryRun`] per registered
    /// query (registration order), exactly as
    /// [`SharedStreamPlan::execute_slice`] would have. A plan runs one pass:
    /// its selects' matches and its aggregates' windows are not reset, so
    /// after `finish` every `push_batch`, `prepare_batch` or `finish` panics.
    pub fn finish(&mut self) -> Vec<QueryRun> {
        // Settle the detector attribution: every cached frame's single
        // global charge splits equally among the queries that used it.
        self.cache.attribute_detections(&self.global, self.detector.stage());
        self.finish_unsettled()
    }

    /// [`SharedStreamPlan::finish`] without the attribution settlement, for
    /// the fleet, which runs many plans against one cache and global ledger:
    /// settling walks the whole cache, so the fleet finishes every plan
    /// through this and settles once
    /// ([`DetectionCache::attribute_detections`]).
    pub(crate) fn finish_unsettled(&mut self) -> Vec<QueryRun> {
        self.ensure_exec();
        let st = self.exec.take().expect("exec state built");
        self.finished = true;
        self.finalize(&st)
    }
}
