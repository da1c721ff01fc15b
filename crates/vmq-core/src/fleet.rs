//! The multi-camera fleet runtime: M cameras × N standing statements in one
//! process, and the one driver every statement runs on.
//!
//! Every camera brings its own stream — a live [`Scene`] (seed, frame rate,
//! regime profile) or a recorded frame slice — and its own
//! [`SharedStreamPlan`] of standing statements, while the fleet provides the
//! shared substrate those plans plug into. [`StreamRuntime`](crate::StreamRuntime)
//! is a fleet of one camera fed from the engine's test split.
//!
//! * **one fleet-global [`DetectionCache`]** with a byte budget — detections
//!   are deduplicated *across* plans (cache keys carry the camera id, so
//!   streams never collide) and evicted under memory pressure with exact
//!   eviction accounting;
//! * **one fleet-global [`CostLedger`]** — each statement is aliased to a
//!   fleet-unique attribution id ([`SharedStreamPlan::alias_user`]), so the
//!   deduplicated bill splits per statement, and [`SharedCost::rollup`]
//!   folds it into per-camera and per-tenant totals;
//! * **adaptive selects** — [`FleetRuntime::register_select_drifted`] plans
//!   a select on its camera's first frames, optionally with a drift monitor.
//!   The rule is hold, plan, release: the camera's queue is held until the
//!   calibration prefix has arrived, every candidate backend is profiled
//!   once on it, each held select is planned and registered, and the queue
//!   is released, prefix frames included. [`FleetRuntime::finish`] plans a
//!   still-held camera on whatever did arrive;
//! * **bounded per-camera ingest queues** — producers enqueue frames up to a
//!   capacity; overflow is *dropped at the edge* and counted, never silently
//!   absorbed;
//! * **a round-robin scheduler** — [`FleetRuntime::poll`] drains one batch
//!   per camera per sweep through the plans' incremental halves: every
//!   camera's [`stage_batch`](SharedStreamPlan::stage_batch) (decode charge,
//!   filter inference, fan-out) at once over the whole machine, then in
//!   camera order each [`probe_batch`](SharedStreamPlan::probe_batch) of the
//!   shared cache, one fleet-wide detector dispatch for every camera's
//!   escalations, and each
//!   [`complete_batch`](SharedStreamPlan::complete_batch). So every camera's
//!   statements make progress and all per-batch machinery (drift replans,
//!   window emission, sharded decode) runs exactly as it would stand-alone;
//! * **graceful overload shedding** — when the total backlog crosses the
//!   configured threshold the scheduler raises the shed level, which halves
//!   aggregate detector *sampling* per level (wider confidence intervals,
//!   reported per estimator). Select queries are never shed: certified
//!   filter recall is a correctness property, not a load knob.
//!
//! Because each camera's plan runs the same phases with the same private
//! ledgers and the same per-frame-pure backends it would run alone, every
//! statement outcome is **bit-identical** to executing that camera's plan in
//! isolation — the fleet only changes who pays for shared work, never what
//! any statement computes, and the order cameras stage in on the pool
//! changes no bit (see [`FleetRuntime::poll`]). The workspace's statement
//! differential pins every fleet statement against a naive per-camera
//! reference; the tests below pin the shared bill against a per-camera
//! [`push_batch`](SharedStreamPlan::push_batch) replay, at several widths.

use std::collections::VecDeque;
use std::time::Instant;

use vmq_detect::{CachedDetector, CostLedger, DetectionCache, Detector, FrameDetections, GroupCost, SharedCost};
use vmq_filters::{FilterProfile, FrameFilter};
use vmq_query::planner::plan_cascade_from_profiles;
use vmq_query::{
    AggregateSpec, CalibrationReport, CascadeConfig, DriftSetup, PipelineConfig, Query, QueryRun, SharedStreamPlan,
    StageMetrics, StagedBatch, WindowEstimator,
};
use vmq_video::{Frame, Scene};

/// Upper bound on frames per fleet-wide coalesced detector dispatch: each
/// [`FleetRuntime::poll`] sweep gathers every camera's cache-missing
/// escalations into batches of at most this many frames and runs each batch
/// once through the persistent pool, instead of one under-filled sharded
/// detect per camera.
const COALESCE_BUDGET: usize = 1024;

/// Tuning knobs of a [`FleetRuntime`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Frames per scheduler batch per camera (0 is treated as 1).
    pub batch_size: usize,
    /// Pool worker count the coalesced detect dispatch shards over, the
    /// runtime's only width knob. Camera staging (every plan's decode
    /// charge, filter inference and fan-out) and learned-filter decode are
    /// derived: they use the whole machine ([`vmq_exec::parallelism`]).
    /// Bit-identical for any value.
    pub workers: usize,
    /// Per-camera ingest queue capacity; frames arriving at a full queue are
    /// dropped at the edge and counted.
    pub queue_capacity: usize,
    /// Byte budget of the fleet-global detection cache.
    pub cache_bytes: usize,
    /// Total backlog (queued frames across all cameras) per shed level: the
    /// scheduler sets `level = backlog / shed_backlog_per_level`, so a
    /// backlog below the threshold runs unshed and deeper overload sheds
    /// harder. Aggregates only — selects never degrade.
    pub shed_backlog_per_level: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            batch_size: PipelineConfig::DEFAULT_BATCH_SIZE,
            workers: 1,
            queue_capacity: 256,
            cache_bytes: 64 << 20,
            shed_backlog_per_level: usize::MAX,
        }
    }
}

/// One standing statement's fleet-level identity.
#[derive(Debug, Clone)]
struct StatementInfo {
    name: String,
    camera: usize,
    tenant: String,
    ledger: CostLedger,
    calibration: Option<Box<CalibrationReport>>,
}

/// Where a camera's frames come from.
enum Feed<'a> {
    /// A live scene, stepped once per ingested frame.
    Scene(Scene),
    /// A recorded stream, replayed in order; it ends with its slice.
    Slice(std::slice::Iter<'a, Frame>),
}

impl Feed<'_> {
    fn next(&mut self) -> Option<Frame> {
        match self {
            Feed::Scene(scene) => Some(scene.step()),
            Feed::Slice(frames) => frames.next().cloned(),
        }
    }
}

/// An adaptive select waiting for its camera's calibration prefix.
struct HeldSelect {
    gid: usize,
    query: Query,
    prefix_frames: usize,
    setup: DriftSetup,
}

/// One registered camera: its feed, its standing-statement plan and the
/// filters registered on it, the adaptive selects it holds its queue for,
/// its bounded ingest queue, and the batch a poll has in flight.
struct CameraState<'a> {
    feed: Feed<'a>,
    camera_id: u32,
    plan: SharedStreamPlan<'a>,
    backends: Vec<&'a dyn FrameFilter>,
    held: Vec<HeldSelect>,
    queue: VecDeque<Frame>,
    ingested: u64,
    dropped: u64,
    batch: Vec<Frame>,
    staged: Option<StagedBatch>,
}

/// One statement's result: who it belongs to plus the per-statement
/// [`QueryRun`] (bit-identical to the camera's isolated run).
#[derive(Debug, Clone)]
pub struct FleetStatementOutcome {
    /// Query name.
    pub name: String,
    /// Camera index within the fleet (registration order).
    pub camera: usize,
    /// The camera's stream id (as stamped on its frames).
    pub camera_id: u32,
    /// Owning tenant.
    pub tenant: String,
    /// The statement's execution report.
    pub run: QueryRun,
    /// How an adaptive select's plan was chosen (`None` for every other
    /// statement; boxed, since most statements have none and a fleet
    /// holds thousands).
    pub calibration: Option<Box<CalibrationReport>>,
}

/// Everything one fleet pass produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-statement outcomes in fleet registration order.
    pub statements: Vec<FleetStatementOutcome>,
    /// Fleet-wide shared-vs-isolated attribution, one row per statement.
    pub shared: SharedCost,
    /// Attribution rolled up per camera.
    pub by_camera: Vec<GroupCost>,
    /// Attribution rolled up per tenant.
    pub by_tenant: Vec<GroupCost>,
    /// Expensive-detector invocations actually performed fleet-wide.
    pub detector_invocations: u64,
    /// Detector lookups served by the fleet-global cache.
    pub cache_hits: u64,
    /// Entries evicted from the fleet-global cache under its byte budget.
    pub cache_evictions: u64,
    /// Bytes resident in the cache at the end of the pass.
    pub cache_resident_bytes: usize,
    /// Frames accepted into ingest queues fleet-wide.
    pub frames_ingested: u64,
    /// Frames dropped at full ingest queues fleet-wide.
    pub frames_dropped: u64,
    /// Times the scheduler *raised* the shed level.
    pub shed_events: u64,
    /// Highest shed level reached.
    pub max_shed_level: u32,
    /// Fleet-wide coalesced detector dispatches.
    pub coalesced_dispatches: u64,
    /// Frames detected through coalesced dispatches.
    pub coalesced_frames: u64,
    /// Largest single coalesced dispatch, in frames.
    pub max_coalesced_batch: usize,
}

/// Registers M cameras × N standing statements and drives them all through
/// per-camera shared plans against one fleet-global cache and ledger. See
/// the module docs for the scheduling and attribution semantics.
pub struct FleetRuntime<'a> {
    detector: &'a dyn Detector,
    cache: DetectionCache,
    global: CostLedger,
    config: FleetConfig,
    cameras: Vec<CameraState<'a>>,
    statements: Vec<StatementInfo>,
    /// Whether one backend object serves several cameras.
    shared_backend: bool,
    shed_level: u32,
    shed_events: u64,
    max_shed_level: u32,
    coalesced_dispatches: u64,
    coalesced_frames: u64,
    max_coalesced_batch: usize,
}

impl<'a> FleetRuntime<'a> {
    /// An empty fleet over one shared expensive detector.
    pub fn new(detector: &'a dyn Detector, config: FleetConfig) -> Self {
        FleetRuntime {
            detector,
            cache: DetectionCache::with_byte_budget(config.cache_bytes),
            global: CostLedger::paper(),
            // A zero batch takes nothing from a queue, so `drain` would stop
            // with every ingested frame still queued.
            config: FleetConfig { batch_size: config.batch_size.max(1), ..config },
            cameras: Vec::new(),
            statements: Vec::new(),
            shared_backend: false,
            shed_level: 0,
            shed_events: 0,
            max_shed_level: 0,
            coalesced_dispatches: 0,
            coalesced_frames: 0,
            max_coalesced_batch: 0,
        }
    }

    /// Registers a camera fed by a live scene; returns its fleet index. The
    /// camera's plan shares the fleet cache and global ledger but keeps its
    /// own statement set and ingest queue.
    pub fn add_camera(&mut self, scene: Scene) -> usize {
        let camera_id = scene.config().camera_id;
        self.push_camera(Feed::Scene(scene), camera_id)
    }

    /// Registers a camera fed by a recorded stream, replayed in order by
    /// [`FleetRuntime::ingest`] until the slice ends; returns its fleet
    /// index. Its stream id is its first frame's.
    pub fn add_camera_frames(&mut self, frames: &'a [Frame]) -> usize {
        let camera_id = frames.first().map_or(0, |f| f.camera_id);
        self.push_camera(Feed::Slice(frames.iter()), camera_id)
    }

    fn push_camera(&mut self, feed: Feed<'a>, camera_id: u32) -> usize {
        let plan = SharedStreamPlan::new(
            self.detector,
            self.cache.clone(),
            self.global.clone(),
            PipelineConfig::with_batch_size(self.config.batch_size),
        );
        self.cameras.push(CameraState {
            feed,
            camera_id,
            plan,
            backends: Vec::new(),
            held: Vec::new(),
            queue: VecDeque::new(),
            ingested: 0,
            dropped: 0,
            batch: Vec::new(),
            staged: None,
        });
        self.cameras.len() - 1
    }

    /// Registers a filter backend on `camera`'s plan; returns its per-camera
    /// backend index. Per-frame-pure filters (the trained and quantized
    /// kinds) may be shared by reference across every camera. A filter
    /// object on several cameras makes [`FleetRuntime::poll`] stage cameras
    /// one after another: a stateful one, such as the calibrated filter's
    /// sequential noise stream, must see their frames in camera order.
    pub fn add_backend(&mut self, camera: usize, filter: &'a dyn FrameFilter) -> usize {
        let address = |f: &dyn FrameFilter| (f as *const dyn FrameFilter).cast::<()>();
        self.shared_backend |= self
            .cameras
            .iter()
            .enumerate()
            .any(|(c, state)| c != camera && state.backends.iter().any(|&f| address(f) == address(filter)));
        let state = &mut self.cameras[camera];
        state.backends.push(filter);
        state.plan.add_backend(filter)
    }

    /// Registers a standing select on `camera` for `tenant`; returns the
    /// statement's fleet-global id (= its outcome/attribution row).
    pub fn register_select(
        &mut self,
        camera: usize,
        tenant: &str,
        query: Query,
        cascade: CascadeConfig,
        backend: Option<usize>,
    ) -> usize {
        let (gid, ledger) = self.add_statement(camera, tenant, &query);
        let plan = &mut self.cameras[camera].plan;
        let q = plan.register_select(query, cascade, backend, ledger);
        plan.alias_user(q, gid);
        gid
    }

    /// Registers a standing select on `camera` for `tenant` whose cascade
    /// the adaptive planner picks among every `(backend × tolerance)` of
    /// `setup.candidate_backends × setup.tolerances` on the camera's first
    /// `prefix_frames` frames; returns the statement's fleet-global id. The
    /// run's virtual time includes the calibration, and its outcome carries
    /// the [`CalibrationReport`]. `setup.config` attaches a drift monitor
    /// over the same candidates; a disabled config (`DriftConfig::new(0.0)`)
    /// keeps the first plan for good.
    ///
    /// The camera's queue is held until the prefix has arrived (or filled
    /// the queue); [`FleetRuntime::finish`] plans on whatever did. A
    /// candidate is profiled once however many selects read it, so they
    /// must all name the same prefix (the planner panics on a profile that
    /// does not cover a select's prefix). A stateful candidate, such as a
    /// calibrated filter, has drawn its noise for the prefix before the
    /// pass, so it should serve only selects calibrating on it.
    pub fn register_select_drifted(
        &mut self,
        camera: usize,
        tenant: &str,
        query: Query,
        prefix_frames: usize,
        setup: DriftSetup,
    ) -> usize {
        let (gid, _) = self.add_statement(camera, tenant, &query);
        self.cameras[camera].held.push(HeldSelect { gid, query, prefix_frames, setup });
        gid
    }

    /// Registers a standing windowed aggregate on `camera` for `tenant`;
    /// returns the statement's fleet-global id. The estimator is borrowed
    /// for the fleet's lifetime (callers keep their estimators alongside the
    /// fleet and read the per-window reports back afterwards).
    pub fn register_aggregate(
        &mut self,
        camera: usize,
        tenant: &str,
        query: Query,
        spec: AggregateSpec,
        backends: &[usize],
        estimator: &'a mut dyn WindowEstimator,
    ) -> usize {
        let (gid, ledger) = self.add_statement(camera, tenant, &query);
        let plan = &mut self.cameras[camera].plan;
        let q = plan.register_aggregate(query, spec, backends, estimator, ledger);
        plan.alias_user(q, gid);
        gid
    }

    /// Adds a statement's fleet-level identity; returns its fleet-global id
    /// (the attribution id its plan registration is aliased to) and its
    /// private ledger.
    fn add_statement(&mut self, camera: usize, tenant: &str, query: &Query) -> (usize, CostLedger) {
        let (name, tenant, ledger) = (query.name.clone(), tenant.to_string(), CostLedger::paper());
        self.statements.push(StatementInfo { name, camera, tenant, ledger: ledger.clone(), calibration: None });
        (self.statements.len() - 1, ledger)
    }

    /// Takes up to `frames` frames from every camera's feed into its
    /// bounded ingest queue; overflow frames are dropped and counted.
    /// Returns the number of frames dropped by this call.
    pub fn ingest(&mut self, frames: usize) -> u64 {
        let mut dropped = 0;
        for state in &mut self.cameras {
            for frame in (0..frames).map_while(|_| state.feed.next()) {
                if state.queue.len() < self.config.queue_capacity {
                    state.queue.push_back(frame);
                    state.ingested += 1;
                } else {
                    state.dropped += 1;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Total frames currently queued across all cameras.
    pub fn backlog(&self) -> usize {
        self.cameras.iter().map(|c| c.queue.len()).sum()
    }

    /// Total frames dropped at full ingest queues so far.
    pub fn dropped(&self) -> u64 {
        self.cameras.iter().map(|c| c.dropped).sum()
    }

    /// The currently active shed level (0 = no shedding).
    pub fn shed_level(&self) -> u32 {
        self.shed_level
    }

    /// One scheduler sweep: re-evaluates the shed level against the current
    /// backlog, plans every held camera whose calibration prefix has arrived
    /// (see [`FleetRuntime::register_select_drifted`]), then takes up to one
    /// batch per camera that holds nothing through its plan in four stages:
    ///
    /// 1. every camera's batch runs its plan's own phases
    ///    ([`SharedStreamPlan::stage_batch`]: decode charge, backend
    ///    inference, fan-out) through [`vmq_exec::shard_each`], all cameras
    ///    at once over the whole machine ([`vmq_exec::parallelism`]). No two
    ///    cameras share a statement, a private ledger or a global attribution
    ///    row, and the global ledger's shared counts are integers, so the
    ///    order cameras stage in changes no bit.
    ///    Only a backend object registered on several cameras can tell the
    ///    order apart (a calibrated filter draws its noise from one
    ///    sequential stream); such a fleet stages one camera after another;
    /// 2. in camera order, each batch probes the shared cache
    ///    ([`SharedStreamPlan::probe_batch`]), leaving per-camera missing
    ///    sets: the cache's recency order, user sets and evictions depend on
    ///    the order of probes;
    /// 3. the missing frames of *all* cameras are concatenated (camera
    ///    order, batch order within a camera) and detected in dispatches of
    ///    at most `COALESCE_BUDGET` (1 024) frames, each sharded once across
    ///    `workers` pool tasks with a position-keyed merge;
    /// 4. results fan back in camera order through
    ///    [`SharedStreamPlan::complete_batch`], which installs them in the
    ///    `(camera_id, frame_id)`-keyed cache and charges the global ledger
    ///    per fresh frame — the same per-camera charges, in the same cache
    ///    order, as each camera's own [`SharedStreamPlan::push_batch`], so
    ///    ledger totals, attribution and every statement outcome stay
    ///    bit-identical to that per-camera replay. Detector wall is
    ///    attributed to cameras proportional to their share of the
    ///    coalesced work.
    ///
    /// A camera with no statement has its batch taken and discarded. A held
    /// camera keeps its frames queued and in [`FleetRuntime::backlog`], so
    /// a sweep over held cameras only returns 0.
    ///
    /// Returns the number of frames processed.
    pub fn poll(&mut self) -> usize {
        self.update_shed();
        for c in 0..self.cameras.len() {
            let state = &self.cameras[c];
            let prefix = state.held.iter().map(|held| held.prefix_frames).max();
            if prefix.is_some_and(|prefix| state.queue.len() >= prefix.min(self.config.queue_capacity)) {
                self.calibrate(c);
            }
        }
        let mut processed = 0;
        for state in self.cameras.iter_mut().filter(|state| state.held.is_empty()) {
            let batch = state.queue.drain(..state.queue.len().min(self.config.batch_size));
            processed += batch.len();
            if !state.plan.user_ids().is_empty() {
                state.batch.extend(batch);
            }
        }
        let width = if self.shared_backend { 1 } else { vmq_exec::parallelism() };
        vmq_exec::shard_each(&mut self.cameras, &mut vec![(); width], |cameras, ()| {
            for state in cameras.iter_mut().filter(|state| !state.batch.is_empty()) {
                state.staged = Some(state.plan.stage_batch(&state.batch));
            }
        });
        let mut plans = Vec::new();
        let mut prepared = Vec::new();
        for CameraState { plan, batch, staged, .. } in &mut self.cameras {
            if let Some(staged) = staged.take() {
                prepared.push(plan.probe_batch(staged, batch));
                plans.push(plan);
            }
        }
        // The fleet-wide work list: (prepared index, missing position).
        let jobs: Vec<(usize, usize)> = prepared
            .iter()
            .enumerate()
            .flat_map(|(p, pending)| (0..pending.missing_len()).map(move |j| (p, j)))
            .collect();
        // vmq-lint: allow(no-wallclock-in-result-paths) -- the span feeds
        // only the `detect_wall_ms` attribution stat; detector outputs and
        // their position-keyed merge are unaffected by timing.
        let detect_start = Instant::now();
        let mut results = Vec::with_capacity(jobs.len());
        let detector = self.detector;
        for chunk_jobs in jobs.chunks(COALESCE_BUDGET) {
            let m = chunk_jobs.len();
            self.coalesced_dispatches += 1;
            self.coalesced_frames += m as u64;
            self.max_coalesced_batch = self.max_coalesced_batch.max(m);
            results.extend(vmq_exec::shard_map(chunk_jobs, self.config.workers, |part| {
                part.iter().map(|&(p, j)| detector.detect(prepared[p].missing_frame(j))).collect()
            }));
        }
        let detect_ms = detect_start.elapsed().as_secs_f64() * 1000.0;
        let total_missing = jobs.len();
        let mut results = results.into_iter();
        for (plan, pending) in plans.into_iter().zip(prepared) {
            let k = pending.missing_len();
            let detections: Vec<FrameDetections> = results.by_ref().take(k).collect();
            let share = if total_missing == 0 { 0.0 } else { detect_ms * k as f64 / total_missing as f64 };
            plan.complete_batch(pending, detections, share);
        }
        for state in &mut self.cameras {
            state.batch.clear();
        }
        processed
    }

    /// Drains every ingest queue: sweeps until no camera has queued frames.
    pub fn drain(&mut self) {
        while self.poll() > 0 {}
    }

    /// Recomputes the shed level from the backlog and propagates changes to
    /// every camera's aggregate estimators. Raising the level counts as one
    /// shed event; recovery (backlog clearing) lowers it again.
    fn update_shed(&mut self) {
        let level = (self.backlog() / self.config.shed_backlog_per_level.max(1)).min(16) as u32;
        if level == self.shed_level {
            return;
        }
        if level > self.shed_level {
            self.shed_events += 1;
            self.max_shed_level = self.max_shed_level.max(level);
        }
        for state in &mut self.cameras {
            state.plan.set_shed_level(level);
        }
        self.shed_level = level;
    }

    /// Plans camera `c`'s held selects on the head of its queue and
    /// releases the queue. Each candidate is profiled once on its selects'
    /// prefix, billed once on the global ledger and split among them; each
    /// select's private ledger pays its whole calibration as if it ran alone:
    /// the detector's annotation of its prefix (served through the fleet
    /// cache) and one profile per candidate.
    fn calibrate(&mut self, c: usize) {
        let FleetRuntime { detector, cache, global, config, cameras, statements, .. } = self;
        let state = &mut cameras[c];
        let held = std::mem::take(&mut state.held);
        let frames: &[Frame] = state.queue.make_contiguous();
        let (model, stage) = (global.model(), detector.stage());
        let profiles: Vec<Option<FilterProfile>> = (state.backends.iter().enumerate())
            .map(|(b, filter)| {
                let readers: Vec<&HeldSelect> =
                    held.iter().filter(|h| h.setup.candidate_backends.contains(&b)).collect();
                let prefix = readers.first()?.prefix_frames.min(frames.len());
                let users: Vec<usize> = readers.iter().map(|h| h.gid).collect();
                global.charge_shared(filter.kind().stage(), prefix as u64, &users);
                Some(filter.profile(&frames[..prefix], model, config.batch_size))
            })
            .collect();
        for HeldSelect { gid, query, prefix_frames, setup } in held {
            // vmq-lint: allow(no-wallclock-in-result-paths) -- the span
            // feeds only the report's `calibration_wall_ms`; thresholds
            // come from the virtual ledger and the calibration prefix.
            let wall_start = Instant::now();
            let prefix = &frames[..prefix_frames.min(frames.len())];
            let info = &mut statements[gid];
            let truth: Vec<bool> = if prefix.is_empty() {
                Vec::new()
            } else {
                info.ledger.charge_calibration(stage, prefix.len() as u64);
                let cached = CachedDetector::new(*detector, cache, gid, Some(global.clone()));
                prefix.iter().map(|f| query.matches_detections(&cached.detect_shared(f))).collect()
            };
            let candidates = &setup.candidate_backends;
            let filters: Vec<&dyn FrameFilter> = candidates.iter().map(|&b| state.backends[b]).collect();
            let profiles: Vec<FilterProfile> = (candidates.iter())
                .map(|&b| {
                    info.ledger.charge_calibration(state.backends[b].kind().stage(), prefix.len() as u64);
                    profiles[b].clone().expect("every candidate is profiled")
                })
                .collect();
            let wall_ms = wall_start.elapsed().as_secs_f64() * 1000.0;
            let report = plan_cascade_from_profiles(
                &query,
                &truth,
                &filters,
                &profiles,
                &setup.tolerances,
                stage,
                model,
                wall_ms,
            );
            let choice = &report.choice;
            let backend = (!choice.brute_force).then(|| candidates[choice.backend_index]);
            let (cascade, mode) = (choice.cascade, format!("adaptive {}", choice.label));
            let row = Some(StageMetrics::calibrate(&report));
            let q = state.plan.register_select_drifted(query, cascade, backend, info.ledger.clone(), mode, row, setup);
            state.plan.alias_user(q, gid);
            info.calibration = Some(Box::new(report));
        }
    }

    /// Ends the fleet pass: plans every still-held camera on the frames it
    /// has, drains the queues, finishes every camera's plan, settles the
    /// fleet-global detector attribution once, assembles per-statement
    /// outcomes in fleet registration order, and rolls the shared bill up
    /// per camera and per tenant. A fleet with no statement runs nothing
    /// and returns an empty outcome.
    pub fn finish(mut self) -> FleetOutcome {
        for c in 0..self.cameras.len() {
            if !self.cameras[c].held.is_empty() {
                self.calibrate(c);
            }
        }
        self.drain();
        let mut runs: Vec<Option<QueryRun>> = vec![None; self.statements.len()];
        for state in self.cameras.iter_mut().filter(|state| !state.plan.user_ids().is_empty()) {
            let gids: Vec<usize> = state.plan.user_ids().to_vec();
            for (q, run) in state.plan.finish_unsettled().into_iter().enumerate() {
                runs[gids[q]] = Some(run);
            }
        }
        // Every plan shares the one cache and ledger, and a settlement
        // replaces the previous one, so one walk over the cache here equals
        // a walk per camera.
        self.cache.attribute_detections(&self.global, self.detector.stage());
        let shares: Vec<(String, f64)> =
            self.statements.iter().map(|info| (info.name.clone(), info.ledger.total_ms())).collect();
        let shared = self.global.shared_cost(&shares);
        let cameras = &self.cameras;
        let statements: Vec<FleetStatementOutcome> = (self.statements.iter_mut().zip(runs))
            .map(|(info, run)| FleetStatementOutcome {
                name: info.name.clone(),
                camera: info.camera,
                camera_id: cameras[info.camera].camera_id,
                tenant: info.tenant.clone(),
                run: run.expect("every registered statement produced a run"),
                calibration: info.calibration.take(),
            })
            .collect();
        let infos = &self.statements;
        let by_camera = shared.rollup(|i| format!("camera-{:04}", cameras[infos[i].camera].camera_id));
        let by_tenant = shared.rollup(|i| infos[i].tenant.clone());
        FleetOutcome {
            statements,
            shared,
            by_camera,
            by_tenant,
            detector_invocations: self.global.invocations(self.detector.stage()),
            cache_hits: self.cache.hits(),
            cache_evictions: self.cache.evictions(),
            cache_resident_bytes: self.cache.resident_bytes(),
            frames_ingested: self.cameras.iter().map(|c| c.ingested).sum(),
            frames_dropped: self.cameras.iter().map(|c| c.dropped).sum(),
            shed_events: self.shed_events,
            max_shed_level: self.max_shed_level,
            coalesced_dispatches: self.coalesced_dispatches,
            coalesced_frames: self.coalesced_frames,
            max_coalesced_batch: self.max_coalesced_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_aggregate::WindowedAggregator;
    use vmq_detect::OracleDetector;
    use vmq_filters::{CalibratedFilter, CalibrationProfile};
    use vmq_video::{DatasetProfile, SceneConfig};

    const CAMERA_FPS: [f32; 2] = [30.0, 15.0];
    const FRAMES_PER_CAMERA: usize = 80;

    fn scene_for(camera: u32) -> Scene {
        let profile = DatasetProfile::jackson();
        let fps = CAMERA_FPS[camera as usize % CAMERA_FPS.len()];
        let config = SceneConfig::from_profile(&profile).with_camera(camera).with_fps(fps);
        Scene::new(config, 1000 + camera as u64)
    }

    fn filter_for(camera: u32, profile: CalibrationProfile) -> CalibratedFilter {
        CalibratedFilter::new(DatasetProfile::jackson().class_list(), 14, profile, 500 + camera as u64)
    }

    fn estimator_for(camera: u32) -> WindowedAggregator {
        WindowedAggregator::new(Query::paper_a1(), 6, 4, 90 + camera as u64)
    }

    fn tenant_for(camera: usize) -> &'static str {
        if camera == 0 {
            "acme"
        } else {
            "globex"
        }
    }

    fn test_config() -> FleetConfig {
        FleetConfig { batch_size: 24, workers: 2, queue_capacity: 512, ..FleetConfig::default() }
    }

    /// A test fleet: every camera registers the same statements and gets
    /// `rounds` ingests of `frames_per_round` frames, each followed by one
    /// poll.
    #[derive(Clone, Copy)]
    struct Workload {
        cameras: u32,
        /// One filterless q3 per camera (every frame goes to the detector)
        /// instead of q3 through the camera's filter plus a one-second a1.
        brute_force: bool,
        /// Camera 0's filter object serves every camera.
        shared_filter: bool,
        rounds: usize,
        frames_per_round: usize,
    }

    const TWO_CAMERAS: Workload = Workload {
        cameras: 2,
        brute_force: false,
        shared_filter: false,
        rounds: 4,
        frames_per_round: FRAMES_PER_CAMERA / 4,
    };

    impl Workload {
        fn statements_per_camera(&self) -> usize {
            if self.brute_force {
                1
            } else {
                2
            }
        }
    }

    /// Runs `workload` through a fleet; returns its outcome and the
    /// per-camera estimators (left unregistered on brute-force workloads).
    fn run_fleet(config: FleetConfig, workload: Workload) -> (FleetOutcome, Vec<WindowedAggregator>) {
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> =
            (0..workload.cameras).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let mut estimators: Vec<WindowedAggregator> = (0..workload.cameras).map(estimator_for).collect();
        let mut fleet = FleetRuntime::new(&oracle, config);
        for (c, estimator) in estimators.iter_mut().enumerate() {
            let cam = fleet.add_camera(scene_for(c as u32));
            let filter = &filters[if workload.shared_filter { 0 } else { c }];
            let backend = (!workload.brute_force).then(|| fleet.add_backend(cam, filter));
            fleet.register_select(cam, tenant_for(c), Query::paper_q3(), CascadeConfig::strict(), backend);
            if let Some(b) = backend {
                let spec = AggregateSpec::hopping_seconds(1.0, 1.0);
                fleet.register_aggregate(cam, tenant_for(c), Query::paper_a1(), spec, &[b], estimator);
            }
        }
        // Interleave ingest and scheduling so batches from every camera
        // genuinely alternate through the shared substrate.
        for _ in 0..workload.rounds {
            assert_eq!(fleet.ingest(workload.frames_per_round), 0);
            fleet.poll();
        }
        (fleet.finish(), estimators)
    }

    /// The per-camera reference for [`run_fleet`]: one plan per camera over
    /// one cache and one ledger, fed the same batches in the same
    /// interleaving through `push_batch` and finished through the settling
    /// `finish` — the fleet without its scheduler, coalesced dispatch or
    /// single settlement. Returns the runs, the shared bill, the estimators
    /// and the detector invocations.
    fn replay(config: &FleetConfig, workload: Workload) -> (Vec<QueryRun>, SharedCost, Vec<WindowedAggregator>, u64) {
        assert!(workload.frames_per_round <= config.batch_size, "one fleet poll takes a whole round");
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> =
            (0..workload.cameras).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let mut estimators: Vec<WindowedAggregator> = (0..workload.cameras).map(estimator_for).collect();
        let cache = DetectionCache::with_byte_budget(config.cache_bytes);
        let global = CostLedger::paper();
        let mut ledgers: Vec<(&str, CostLedger)> = Vec::new();
        let mut plans = Vec::new();
        for (c, estimator) in estimators.iter_mut().enumerate() {
            let filter = &filters[if workload.shared_filter { 0 } else { c }];
            let mut plan = SharedStreamPlan::new(
                &oracle,
                cache.clone(),
                global.clone(),
                PipelineConfig::with_batch_size(config.batch_size),
            );
            let backend = (!workload.brute_force).then(|| plan.add_backend(filter));
            let ledger = CostLedger::paper();
            let q = plan.register_select(Query::paper_q3(), CascadeConfig::strict(), backend, ledger.clone());
            plan.alias_user(q, ledgers.len());
            ledgers.push(("q3", ledger));
            if let Some(b) = backend {
                let ledger = CostLedger::paper();
                let spec = AggregateSpec::hopping_seconds(1.0, 1.0);
                let q = plan.register_aggregate(Query::paper_a1(), spec, &[b], estimator, ledger.clone());
                plan.alias_user(q, ledgers.len());
                ledgers.push(("a1", ledger));
            }
            plans.push(plan);
        }
        let mut scenes: Vec<Scene> = (0..workload.cameras).map(scene_for).collect();
        for _ in 0..workload.rounds {
            for (plan, scene) in plans.iter_mut().zip(&mut scenes) {
                let batch: Vec<Frame> = (0..workload.frames_per_round).map(|_| scene.step()).collect();
                plan.push_batch(&batch);
            }
        }
        let runs: Vec<QueryRun> = plans.into_iter().flat_map(|mut plan| plan.finish()).collect();
        let shares: Vec<(String, f64)> =
            ledgers.iter().map(|(name, ledger)| (name.to_string(), ledger.total_ms())).collect();
        (runs, global.shared_cost(&shares), estimators, global.invocations(oracle.stage()))
    }

    fn assert_run_bit_identical(a: &QueryRun, b: &QueryRun, ctx: &str) {
        assert_eq!(a.matched_frames, b.matched_frames, "{ctx}");
        assert_eq!(a.frames_passed_filter, b.frames_passed_filter, "{ctx}");
        assert_eq!(a.frames_detected, b.frames_detected, "{ctx}");
        assert_eq!(a.virtual_ms.to_bits(), b.virtual_ms.to_bits(), "{ctx}: {} vs {}", a.virtual_ms, b.virtual_ms);
    }

    fn assert_reports_bit_identical(a: &[WindowedAggregator], b: &[WindowedAggregator]) {
        assert_eq!(a.len(), b.len());
        for (ea, eb) in a.iter().zip(b) {
            assert_eq!(ea.reports().len(), eb.reports().len());
            for (ra, rb) in ea.reports().iter().zip(eb.reports()) {
                assert_eq!(ra.window_index, rb.window_index);
                assert_eq!(ra.window_start, rb.window_start);
                assert_eq!(ra.window_frames, rb.window_frames);
                assert_eq!(ra.plain_mean.to_bits(), rb.plain_mean.to_bits());
                assert_eq!(ra.mcv_mean.to_bits(), rb.mcv_mean.to_bits());
            }
        }
    }

    /// Asserts a fleet outcome equals the per-camera [`replay`] of its
    /// workload bit for bit: every statement run, the shared bill and its
    /// per-camera / per-tenant rollups, and every aggregate window report.
    fn assert_matches_replay(
        config: &FleetConfig,
        workload: Workload,
        outcome: &FleetOutcome,
        estimators: &[WindowedAggregator],
    ) {
        let (runs, shared, replayed, _) = replay(config, workload);
        assert_eq!(outcome.statements.len(), runs.len());
        for (statement, run) in outcome.statements.iter().zip(&runs) {
            assert_run_bit_identical(&statement.run, run, &statement.name);
        }
        assert_eq!(outcome.shared.shared_total_ms.to_bits(), shared.shared_total_ms.to_bits());
        assert_eq!(outcome.shared.isolated_total_ms.to_bits(), shared.isolated_total_ms.to_bits());
        for (a, b) in outcome.shared.queries.iter().zip(&shared.queries) {
            assert_eq!(
                (&a.query, a.attributed_ms.to_bits(), a.isolated_ms.to_bits()),
                (&b.query, b.attributed_ms.to_bits(), b.isolated_ms.to_bits())
            );
        }
        let per_camera = workload.statements_per_camera();
        let by_camera = shared.rollup(|i| format!("camera-{:04}", i / per_camera));
        let by_tenant = shared.rollup(|i| tenant_for(i / per_camera).to_string());
        for (fleet, by_hand) in [(&outcome.by_camera, &by_camera), (&outcome.by_tenant, &by_tenant)] {
            assert_eq!(fleet.len(), by_hand.len());
            for (a, b) in fleet.iter().zip(by_hand) {
                assert_eq!((&a.group, a.statements), (&b.group, b.statements));
                assert_eq!(a.attributed_ms.to_bits(), b.attributed_ms.to_bits(), "{}", a.group);
                assert_eq!(a.isolated_ms.to_bits(), b.isolated_ms.to_bits(), "{}", a.group);
            }
        }
        assert_reports_bit_identical(estimators, &replayed);
    }

    /// The fleet settles detector attribution once per finish; its
    /// per-camera replay, where every plan settles the shared cache for
    /// itself as `SharedStreamPlan::finish` does, produces the identical
    /// runs, bill, rollups and window reports.
    #[test]
    fn one_settlement_per_fleet_finish_equals_per_plan_settlement() {
        let config = test_config();
        let (outcome, estimators) = run_fleet(config.clone(), TWO_CAMERAS);
        assert_matches_replay(&config, TWO_CAMERAS, &outcome, &estimators);
    }

    /// The fleet unions every camera's escalations into one detector
    /// dispatch per poll; the per-camera replay, where every plan detects
    /// its own escalations, is the uncoalesced reference. Both detect the
    /// same frames and answer identically to the bit.
    #[test]
    fn coalesced_detect_is_bit_identical_to_uncoalesced() {
        let config = test_config();
        let (coalesced, est_c) = run_fleet(config.clone(), TWO_CAMERAS);
        assert!(coalesced.coalesced_dispatches > 0, "every poll with escalations dispatches");
        // Escalation-union detections flow through the coalescer; aggregate
        // window sampling detects separately, so the totals need not match.
        assert!(coalesced.coalesced_frames > 0);
        assert!(coalesced.coalesced_frames <= coalesced.detector_invocations);
        let (runs, _, est_u, invocations) = replay(&config, TWO_CAMERAS);
        assert_eq!(coalesced.detector_invocations, invocations, "coalescing detects no frame more or less");
        assert_eq!(coalesced.statements.len(), runs.len());
        for (statement, run) in coalesced.statements.iter().zip(&runs) {
            assert_run_bit_identical(&statement.run, run, &statement.name);
        }
        assert_reports_bit_identical(&est_c, &est_u);
    }

    /// 48 cameras × a 24-frame batch of filterless selects put 1 152
    /// cache-missing frames into each poll, more than one dispatch may
    /// carry: every poll splits into 1 024 + 128 frames and the fleet still
    /// answers exactly as its per-camera replay.
    #[test]
    fn a_poll_past_the_dispatch_bound_splits_without_changing_outcomes() {
        let workload = Workload { cameras: 48, brute_force: true, rounds: 2, frames_per_round: 24, ..TWO_CAMERAS };
        let config = test_config();
        let (outcome, estimators) = run_fleet(config.clone(), workload);
        assert_eq!(outcome.max_coalesced_batch, COALESCE_BUDGET);
        assert_eq!(outcome.coalesced_dispatches, 4, "two dispatches per poll");
        assert_eq!(outcome.coalesced_frames, 2 * 48 * 24);
        assert_matches_replay(&config, workload, &outcome, &estimators);
    }

    /// Every camera stages its batch on the pool, at `workers` 1 to 4 and
    /// again on a repeat, and the fleet answers as its per-camera replay to
    /// the bit. With one calibrated filter object on all three cameras the
    /// cameras stage one after another instead, since its noise stream is
    /// drawn in camera order; that fleet answers as its replay too.
    #[test]
    fn sharded_staging_is_bit_identical_at_every_width_and_repeat() {
        for shared_filter in [false, true] {
            let workload = Workload { cameras: 3, shared_filter, ..TWO_CAMERAS };
            for workers in 1..=4 {
                for _ in 0..2 {
                    let config = FleetConfig { workers, ..test_config() };
                    let (outcome, estimators) = run_fleet(config.clone(), workload);
                    assert_matches_replay(&config, workload, &outcome, &estimators);
                }
            }
        }
    }

    /// Fault injection: `cache_bytes: 0` starves the fleet-global cache down
    /// to its most recent frame. Sampled frames are re-detected instead of
    /// served, yet every statement and window answers as under the default
    /// budget and the larger detector bill stays fully attributed.
    #[test]
    fn zero_cache_bytes_redetects_but_changes_no_answer() {
        let (roomy, est_r) = run_fleet(test_config(), TWO_CAMERAS);
        let (starved, est_s) = run_fleet(FleetConfig { cache_bytes: 0, ..test_config() }, TWO_CAMERAS);
        assert_eq!(roomy.cache_evictions, 0);
        assert_eq!(starved.cache_evictions, starved.detector_invocations - 1, "one frame stays resident");
        assert!(starved.detector_invocations > roomy.detector_invocations);
        for (s, r) in starved.statements.iter().zip(&roomy.statements) {
            assert_run_bit_identical(&s.run, &r.run, &s.name);
        }
        assert_reports_bit_identical(&est_s, &est_r);
        let attributed: f64 = starved.shared.queries.iter().map(|q| q.attributed_ms).sum();
        assert!((attributed - starved.shared.shared_total_ms).abs() < 1e-6, "the split covers every re-detection");
    }

    /// Fault injection: a zero batch size is read as one frame per batch,
    /// so every ingested frame is processed; a zero queue capacity drops
    /// every offered frame at the edge and counts it.
    #[test]
    fn zero_batch_size_and_zero_queue_capacity_lose_no_frame_silently() {
        let run = |config: FleetConfig| {
            let oracle = OracleDetector::perfect();
            let filter = filter_for(0, CalibrationProfile::od_like());
            let mut fleet = FleetRuntime::new(&oracle, config);
            let cam = fleet.add_camera(scene_for(0));
            let b = fleet.add_backend(cam, &filter);
            fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
            let dropped = fleet.ingest(40);
            (dropped, fleet.finish())
        };
        let (dropped, zero_batch) = run(FleetConfig { batch_size: 0, ..FleetConfig::default() });
        assert_eq!((dropped, zero_batch.frames_ingested), (0, 40));
        assert_eq!(zero_batch.statements[0].run.frames_total, 40);
        let (_, one_frame_batches) = run(FleetConfig { batch_size: 1, ..FleetConfig::default() });
        assert_run_bit_identical(&zero_batch.statements[0].run, &one_frame_batches.statements[0].run, "batch 0 vs 1");

        let (dropped, zero_queue) = run(FleetConfig { queue_capacity: 0, ..FleetConfig::default() });
        assert_eq!((dropped, zero_queue.frames_dropped, zero_queue.frames_ingested), (40, 40, 0));
        assert_eq!(zero_queue.statements[0].run.frames_total, 0);
    }

    /// A fleet with no statement runs nothing: it returns an empty outcome
    /// instead of panicking, with its ingest and drop counts as observed.
    #[test]
    fn an_empty_fleet_finishes_with_an_empty_outcome() {
        let oracle = OracleDetector::perfect();
        let mut fleet = FleetRuntime::new(&oracle, FleetConfig { queue_capacity: 16, ..FleetConfig::default() });
        fleet.add_camera(scene_for(0));
        assert_eq!(fleet.ingest(20), 4);
        let outcome = fleet.finish();
        assert!(outcome.statements.is_empty());
        assert!(outcome.by_camera.is_empty() && outcome.by_tenant.is_empty());
        assert_eq!(outcome.detector_invocations, 0);
        assert!(outcome.shared.queries.is_empty());
        assert_eq!(outcome.shared.shared_total_ms, 0.0);
        assert_eq!(outcome.shared.isolated_total_ms, 0.0);
        assert_eq!((outcome.frames_ingested, outcome.frames_dropped), (16, 4));
    }

    /// A camera with no statement next to one with a select: every poll
    /// takes the idle camera's batch without staging it, and the select
    /// answers as in a fleet without the idle camera.
    #[test]
    fn an_idle_camera_is_drained_without_changing_its_neighbour() {
        let oracle = OracleDetector::perfect();
        let run = |idle: bool| {
            let filter = filter_for(1, CalibrationProfile::od_like());
            let mut fleet = FleetRuntime::new(&oracle, test_config());
            if idle {
                fleet.add_camera(scene_for(0));
            }
            let cam = fleet.add_camera(scene_for(1));
            let b = fleet.add_backend(cam, &filter);
            fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
            for _ in 0..4 {
                fleet.ingest(FRAMES_PER_CAMERA / 4);
                fleet.poll();
                assert_eq!(fleet.backlog(), 0, "one poll takes a whole round from every camera");
            }
            fleet.finish()
        };
        let (with_idle, alone) = (run(true), run(false));
        assert_eq!(with_idle.frames_ingested, 2 * FRAMES_PER_CAMERA as u64);
        assert_eq!(with_idle.statements.len(), 1);
        assert_run_bit_identical(&with_idle.statements[0].run, &alone.statements[0].run, "q3 beside an idle camera");
        assert_eq!(with_idle.shared.shared_total_ms.to_bits(), alone.shared.shared_total_ms.to_bits());
    }

    /// An adaptive select holds its camera's queue until the calibration
    /// prefix has arrived, then plans on it and releases the queue, prefix
    /// included; `finish` plans a camera still held on what did arrive.
    #[test]
    fn an_adaptive_select_holds_its_camera_until_the_prefix_arrives() {
        let oracle = OracleDetector::perfect();
        let run = |prefix_frames: usize, rounds: usize| {
            let filter = filter_for(0, CalibrationProfile::perfect());
            let mut fleet = FleetRuntime::new(&oracle, test_config());
            let cam = fleet.add_camera(scene_for(0));
            let b = fleet.add_backend(cam, &filter);
            let setup = DriftSetup {
                config: vmq_query::DriftConfig::new(0.0),
                candidate_backends: vec![b],
                tolerances: CascadeConfig::lattice(),
            };
            fleet.register_select_drifted(cam, "acme", Query::paper_q3(), prefix_frames, setup);
            let polled: Vec<(usize, usize)> = (0..rounds)
                .map(|_| {
                    fleet.ingest(20);
                    (fleet.poll(), fleet.backlog())
                })
                .collect();
            (polled, fleet.finish().statements.remove(0))
        };
        let (polled, outcome) = run(30, 3);
        assert_eq!(polled, [(0, 20), (24, 16), (24, 12)], "held at 20 frames, released at 40");
        let calibration = outcome.calibration.expect("an adaptive select reports its calibration");
        assert_eq!(calibration.prefix_frames, 30);
        assert!(outcome.run.mode.starts_with("adaptive "), "{}", outcome.run.mode);
        assert_eq!(outcome.run.frames_total, 60);

        let (polled, outcome) = run(100, 2);
        assert_eq!(polled, [(0, 20), (0, 40)]);
        assert_eq!(outcome.calibration.expect("planned at finish").prefix_frames, 40);
        assert_eq!(outcome.run.frames_total, 40);
    }

    #[test]
    fn fleet_rollups_split_the_shared_bill_per_camera_and_tenant() {
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> = (0..2).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let mut fleet =
            FleetRuntime::new(&oracle, FleetConfig { batch_size: 24, queue_capacity: 512, ..FleetConfig::default() });
        for (c, filter) in filters.iter().enumerate() {
            let cam = fleet.add_camera(scene_for(c as u32));
            let b = fleet.add_backend(cam, filter);
            let tenant = if c == 0 { "acme" } else { "globex" };
            fleet.register_select(cam, tenant, Query::paper_q3(), CascadeConfig::strict(), Some(b));
            fleet.register_select(cam, "acme", Query::paper_q1(), CascadeConfig::strict(), Some(b));
        }
        fleet.ingest(FRAMES_PER_CAMERA);
        let outcome = fleet.finish();

        assert_eq!(outcome.shared.queries.len(), 4);
        assert_eq!(outcome.by_camera.len(), 2);
        assert_eq!(outcome.by_tenant.len(), 2);
        for group in &outcome.by_camera {
            assert_eq!(group.statements, 2, "{}", group.group);
        }
        let acme = outcome.by_tenant.iter().find(|g| g.group == "acme").expect("acme rollup");
        let globex = outcome.by_tenant.iter().find(|g| g.group == "globex").expect("globex rollup");
        assert_eq!(acme.statements, 3);
        assert_eq!(globex.statements, 1);
        // Rollups are a partition of the per-statement attribution: both
        // groupings sum to the same fleet-wide bill.
        let total: f64 = outcome.shared.queries.iter().map(|q| q.attributed_ms).sum();
        let by_camera: f64 = outcome.by_camera.iter().map(|g| g.attributed_ms).sum();
        let by_tenant: f64 = outcome.by_tenant.iter().map(|g| g.attributed_ms).sum();
        assert!((by_camera - total).abs() < 1e-6);
        assert!((by_tenant - total).abs() < 1e-6);
        assert!(total > 0.0);
    }

    #[test]
    fn bounded_ingest_queues_drop_at_the_edge_and_count() {
        let oracle = OracleDetector::perfect();
        let filter = filter_for(0, CalibrationProfile::od_like());
        let mut fleet =
            FleetRuntime::new(&oracle, FleetConfig { batch_size: 8, queue_capacity: 16, ..FleetConfig::default() });
        let cam = fleet.add_camera(scene_for(0));
        let b = fleet.add_backend(cam, &filter);
        fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
        let dropped = fleet.ingest(50);
        assert_eq!(dropped, 34, "16 queued, the rest dropped at the edge");
        assert_eq!(fleet.backlog(), 16);
        fleet.drain();
        assert_eq!(fleet.backlog(), 0);
        // Draining makes room: a second ingest of exactly the capacity fits.
        assert_eq!(fleet.ingest(16), 0);
        let outcome = fleet.finish();
        assert_eq!(outcome.frames_dropped, 34);
        assert_eq!(outcome.frames_ingested, 32);
        assert_eq!(outcome.statements[0].run.frames_total, 32);
    }

    #[test]
    fn overload_sheds_aggregate_sampling_but_never_select_recall() {
        let oracle = OracleDetector::perfect();
        // A perfect filter makes expected recall exactly 1.0, so any shed
        // leakage into the select path would show up as a missed frame.
        let filter = filter_for(0, CalibrationProfile::perfect());
        let mut estimator = WindowedAggregator::new(Query::paper_a1(), 8, 4, 90);
        let mut unshed = WindowedAggregator::new(Query::paper_a1(), 8, 4, 90);
        let mut fleet = FleetRuntime::new(
            &oracle,
            FleetConfig { batch_size: 16, queue_capacity: 512, shed_backlog_per_level: 24, ..FleetConfig::default() },
        );
        let cam = fleet.add_camera(scene_for(0));
        let b = fleet.add_backend(cam, &filter);
        fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
        fleet.register_aggregate(cam, "acme", Query::paper_a1(), AggregateSpec::new(20, 20), &[b], &mut estimator);
        // Burst: the whole stream arrives at once, far past the shed
        // threshold, and stays backlogged while early windows emit.
        fleet.ingest(120);
        assert!(fleet.backlog() > 24);
        fleet.drain();
        assert_eq!(fleet.shed_level(), 0, "backlog cleared, shed recovered");
        let outcome = fleet.finish();
        assert!(outcome.shed_events >= 1, "overload must be reported");
        assert!(outcome.max_shed_level >= 1);
        assert!(estimator.shed_windows() > 0, "some windows ran degraded");

        // Degraded means *fewer detector samples*, not different answers to
        // the select: recall against ground truth stays exactly 1.0.
        let mut scene = scene_for(0);
        let frames: Vec<Frame> = (0..120).map(|_| scene.step()).collect();
        let truth: Vec<u64> =
            frames.iter().filter(|f| Query::paper_q3().matches_ground_truth(f)).map(|f| f.frame_id).collect();
        assert_eq!(outcome.statements[0].run.matched_frames, truth);

        // And the shed estimator really did less sampling than an unshed
        // pass over the same stream.
        let mut plan = SharedStreamPlan::new(
            &oracle,
            DetectionCache::new(),
            CostLedger::paper(),
            PipelineConfig::with_batch_size(16),
        );
        let filter2 = filter_for(0, CalibrationProfile::perfect());
        let b2 = plan.add_backend(&filter2);
        plan.register_aggregate(Query::paper_a1(), AggregateSpec::new(20, 20), &[b2], &mut unshed, CostLedger::paper());
        let unshed_runs = plan.execute_slice(&frames);
        let shed_run = &outcome.statements[1].run;
        assert!(
            shed_run.frames_detected < unshed_runs[0].frames_detected,
            "shed {} vs unshed {}",
            shed_run.frames_detected,
            unshed_runs[0].frames_detected
        );
        assert_eq!(estimator.reports().len(), unshed.reports().len(), "every window still reports");
    }
}
