//! The multi-camera fleet runtime: M cameras × N standing statements in one
//! process, and the one driver every statement runs on.
//!
//! Every camera brings its own stream — a live [`Scene`] (seed, frame rate,
//! regime profile) or a recorded frame slice — and its own
//! [`SharedStreamPlan`] of standing statements, while the fleet provides the
//! shared substrate those plans plug into. `vmq-core`'s `StreamRuntime` is a
//! fleet of one camera fed from the engine's test split. The fleet sits
//! beside the plan because it decides how plans share that substrate:
//! which attribution id each statement charges under, when a camera's
//! batch is staged, and the one settlement at the end.
//!
//! * **one fleet-global [`DetectionCache`]** with a byte budget — detections
//!   are deduplicated *across* plans (cache keys carry the camera id, so
//!   streams never collide) and evicted under memory pressure with exact
//!   eviction accounting;
//! * **one fleet-global [`CostLedger`]** — each statement registers on its
//!   camera's plan under a fleet-unique attribution id, so the deduplicated
//!   bill splits per statement, and [`SharedCost::rollup`] folds it into
//!   per-camera and per-tenant totals;
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
//!   per camera per sweep as a camera-ordered
//!   [`push_batch`](SharedStreamPlan::push_batch) replay with its first half
//!   overlapped: pool tasks stage the cameras' batches (decode charge,
//!   filter inference, fan-out) ahead of the calling thread, which probes
//!   the shared cache, detects the camera's misses and completes each
//!   camera in order. So every camera's statements make progress and all
//!   per-batch machinery (drift replans, window emission, sharded decode)
//!   runs exactly as it would stand-alone;
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
//! reference; the tests below pin the shared bill against a camera-ordered
//! [`push_batch`](SharedStreamPlan::push_batch) replay, with and without a
//! shared filter, an evicting cache and a held adaptive select.

use std::collections::VecDeque;
use std::time::Instant;

use crate::pipeline::StagedBatch;
use crate::planner::plan_cascade_from_profiles;
use crate::{
    AggregateSpec, CalibrationReport, CascadeConfig, DriftSetup, PipelineConfig, Query, QueryRun, SharedStreamPlan,
    StageMetrics, WindowEstimator,
};
use vmq_detect::{CachedDetector, CostLedger, DetectionCache, Detector, GroupCost, SharedCost};
use vmq_filters::{FilterProfile, FrameFilter};
use vmq_video::{Frame, Scene};

/// Tuning knobs of a [`FleetRuntime`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Frames per scheduler batch per camera (0 is treated as 1).
    pub batch_size: usize,
    /// Ignored: [`FleetRuntime::poll`] derives its width from the machine
    /// ([`vmq_exec::parallelism`]), and each camera detects its own misses
    /// on the calling thread. Kept only so existing configurations build.
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

/// What a statement's plan does not know about it: whose it is, and how an
/// adaptive select's plan was chosen. Its fleet-global id is its index.
#[derive(Debug, Clone)]
struct StatementInfo {
    camera: usize,
    tenant: String,
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

/// One registered camera: its feed, its standing-statement plan, the
/// adaptive selects it holds its queue for, its bounded ingest queue, and
/// the batch a poll has in flight.
struct CameraState<'a> {
    feed: Feed<'a>,
    camera_id: u32,
    plan: SharedStreamPlan<'a>,
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
    /// Per-camera detector dispatches: camera batches in which the detector
    /// ran on at least one cache-missing escalation.
    pub coalesced_dispatches: u64,
    /// Frames detected through those per-camera dispatches (escalations
    /// only; aggregate window sampling detects separately).
    pub coalesced_frames: u64,
    /// Largest single per-camera dispatch, in frames.
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
            .any(|(c, state)| c != camera && state.plan.backends.iter().any(|&f| address(f) == address(filter)));
        self.cameras[camera].plan.add_backend(filter)
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
        let gid = self.add_statement(camera, tenant);
        let plan = &mut self.cameras[camera].plan;
        plan.register_as(gid, |plan| plan.register_select(query, cascade, backend, CostLedger::paper()));
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
        let gid = self.add_statement(camera, tenant);
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
        let gid = self.add_statement(camera, tenant);
        let plan = &mut self.cameras[camera].plan;
        plan.register_as(gid, |plan| plan.register_aggregate(query, spec, backends, estimator, CostLedger::paper()));
        gid
    }

    /// Adds a statement's fleet-level identity; returns its fleet-global id,
    /// the attribution id it registers on its camera's plan under.
    fn add_statement(&mut self, camera: usize, tenant: &str) -> usize {
        self.statements.push(StatementInfo { camera, tenant: tenant.to_string(), calibration: None });
        self.statements.len() - 1
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
    /// batch per camera that holds nothing through its plan in two
    /// overlapped stages ([`vmq_exec::pipeline`] over the whole machine,
    /// [`vmq_exec::parallelism`]):
    ///
    /// 1. *stage*: pool tasks claim cameras one at a time in camera order
    ///    and run each batch's own phases (decode charge, backend
    ///    inference, fan-out). These touch no detection cache, and no two
    ///    cameras share a statement, a private ledger or a global
    ///    attribution row; the global ledger's shared counts are integers.
    ///    So neither the order cameras stage in nor which thread stages them
    ///    changes a bit. Only a backend object registered on several cameras
    ///    can tell the order apart (a calibrated filter draws its noise from
    ///    one sequential stream); such a fleet stages and completes one
    ///    camera after another on the calling thread;
    /// 2. *complete*: the calling thread takes each camera in camera order as
    ///    soon as its batch is staged (staging one itself whenever the next
    ///    is not) and runs the rest of its
    ///    [`push_batch`](SharedStreamPlan::push_batch): the cache probe, the detector
    ///    on the camera's misses, and completion, which installs detections
    ///    in the `(camera_id, frame_id)`-keyed cache, charges the global
    ///    ledger per fresh frame, evaluates, emits windows and replans.
    ///
    /// So the shared cache sees every camera's probe and completion in
    /// camera order, exactly as in a camera-ordered `push_batch` replay of
    /// the same batches, and ledger totals, attribution and every statement
    /// outcome equal that replay's bit for bit.
    ///
    /// A camera with no statement has its batch taken and discarded. A held
    /// camera keeps its frames queued and in [`FleetRuntime::backlog`], so
    /// a sweep over held cameras only returns 0. A panic in any camera's
    /// stage or completion resumes here once every pool task has returned;
    /// the fleet is not usable after it.
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
        let mut polled: Vec<&mut CameraState<'a>> = Vec::new();
        for state in self.cameras.iter_mut().filter(|state| state.held.is_empty()) {
            let batch = state.queue.drain(..state.queue.len().min(self.config.batch_size));
            processed += batch.len();
            if !state.plan.user_ids.is_empty() {
                state.batch.extend(batch);
                polled.push(state);
            }
        }
        let width = if self.shared_backend { 1 } else { vmq_exec::parallelism() };
        vmq_exec::pipeline(
            &mut polled,
            width,
            |state| state.staged = Some(state.plan.stage_batch(&state.batch)),
            |state| {
                let staged = state.staged.take().expect("staged before completion");
                let frames = state.plan.push_staged(staged, &state.batch);
                if frames > 0 {
                    self.coalesced_dispatches += 1;
                    self.coalesced_frames += frames as u64;
                    self.max_coalesced_batch = self.max_coalesced_batch.max(frames);
                }
                state.batch.clear();
            },
        );
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
        let profiles: Vec<Option<FilterProfile>> = (state.plan.backends.iter().enumerate())
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
            let ledger = CostLedger::paper();
            let truth: Vec<bool> = if prefix.is_empty() {
                Vec::new()
            } else {
                ledger.charge_calibration(stage, prefix.len() as u64);
                let cached = CachedDetector::new(*detector, cache, gid, Some(global.clone()));
                prefix.iter().map(|f| query.matches_detections(&cached.detect_shared(f))).collect()
            };
            let candidates = &setup.candidate_backends;
            let filters: Vec<&dyn FrameFilter> = candidates.iter().map(|&b| state.plan.backends[b]).collect();
            let profiles: Vec<FilterProfile> = (candidates.iter())
                .map(|&b| {
                    ledger.charge_calibration(state.plan.backends[b].kind().stage(), prefix.len() as u64);
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
            state.plan.register_as(gid, |plan| {
                plan.register_select_drifted(query, cascade, backend, ledger, mode, row, setup)
            });
            statements[gid].calibration = Some(Box::new(report));
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
        for state in self.cameras.iter_mut().filter(|state| !state.plan.user_ids.is_empty()) {
            for (run, &gid) in state.plan.finish_unsettled().into_iter().zip(&state.plan.user_ids) {
                runs[gid] = Some(run);
            }
        }
        let runs: Vec<QueryRun> =
            runs.into_iter().map(|run| run.expect("every registered statement produced a run")).collect();
        // Every plan shares the one cache and ledger, and a settlement
        // replaces the previous one, so one walk over the cache here equals
        // a walk per camera. A run's virtual time is its private ledger's
        // total, which the settlement does not touch.
        self.cache.attribute_detections(&self.global, self.detector.stage());
        let shares: Vec<(String, f64)> = runs.iter().map(|run| (run.query.clone(), run.virtual_ms)).collect();
        let shared = self.global.shared_cost(&shares);
        let cameras = &self.cameras;
        let statements: Vec<FleetStatementOutcome> = (self.statements.iter_mut().zip(runs))
            .map(|(info, run)| FleetStatementOutcome {
                name: run.query.clone(),
                camera: info.camera,
                camera_id: cameras[info.camera].camera_id,
                tenant: info.tenant.clone(),
                run,
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
    use crate::{DriftConfig, WindowCharge, WindowData};
    use vmq_detect::OracleDetector;
    use vmq_filters::{CalibratedFilter, CalibrationProfile};
    use vmq_video::{DatasetProfile, SceneConfig};

    /// A window estimator that samples as `vmq-aggregate`'s does: `trials`
    /// seeded draws of `sample_size` frames per window (halved per shed
    /// level, floored at 2), each detected through the plan's cached
    /// detector, so repeated draws hit the shared cache, an evicting cache
    /// re-detects, and every draw counts in the aggregate's attribution.
    /// Each window reports the share of draws that match the query.
    struct Sampler {
        query: Query,
        sample_size: usize,
        trials: usize,
        seed: u64,
        shed_level: u32,
        shed_windows: usize,
        /// Per window: its index, start and frames, and the matching
        /// share's bits.
        reports: Vec<(usize, usize, usize, u64)>,
    }

    impl Sampler {
        fn new(query: Query, sample_size: usize, trials: usize, seed: u64) -> Self {
            Sampler { query, sample_size, trials, seed, shed_level: 0, shed_windows: 0, reports: Vec::new() }
        }
    }

    impl WindowEstimator for Sampler {
        fn estimate_window(&mut self, window: WindowData<'_>, detector: &dyn Detector, _: &CostLedger) -> WindowCharge {
            if window.frames.is_empty() {
                return WindowCharge::default();
            }
            self.shed_windows += usize::from(self.shed_level > 0);
            let draws = self.trials * (self.sample_size >> self.shed_level.min(31)).max(2);
            let key = self.seed ^ (window.index as u64) << 32;
            let matches = (0..draws as u64)
                .filter(|&k| {
                    // splitmix64 of the window's key and the draw.
                    let mut z = key.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    z = (z ^ z >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
                    let frame = &window.frames[((z ^ z >> 31) % window.frames.len() as u64) as usize];
                    self.query.matches_detections(&detector.detect_shared(frame))
                })
                .count();
            let share = matches as f64 / draws as f64;
            self.reports.push((window.index, window.start, window.frames.len(), share.to_bits()));
            WindowCharge { estimation_frames: draws as u64, calibration_frames: 0 }
        }

        fn set_shed_level(&mut self, level: u32) {
            self.shed_level = level;
        }
    }

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

    fn estimator_for(camera: u32) -> Sampler {
        Sampler::new(Query::paper_a1(), 6, 4, 90 + camera as u64)
    }

    fn tenant_for(camera: usize) -> &'static str {
        if camera == 0 {
            "acme"
        } else {
            "globex"
        }
    }

    fn test_config() -> FleetConfig {
        FleetConfig { batch_size: 24, queue_capacity: 512, ..FleetConfig::default() }
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
    fn run_fleet(config: FleetConfig, workload: Workload) -> (FleetOutcome, Vec<Sampler>) {
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> =
            (0..workload.cameras).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let mut estimators: Vec<Sampler> = (0..workload.cameras).map(estimator_for).collect();
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
    /// `finish` — the fleet without its scheduler, pool or single
    /// settlement. Returns the runs, the shared bill, the estimators and the
    /// detector invocations.
    fn replay(config: &FleetConfig, workload: Workload) -> (Vec<QueryRun>, SharedCost, Vec<Sampler>, u64) {
        assert!(workload.frames_per_round <= config.batch_size, "one fleet poll takes a whole round");
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> =
            (0..workload.cameras).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let mut estimators: Vec<Sampler> = (0..workload.cameras).map(estimator_for).collect();
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
            let (q3, strict) = (Query::paper_q3(), CascadeConfig::strict());
            plan.register_as(ledgers.len(), |plan| plan.register_select(q3, strict, backend, ledger.clone()));
            ledgers.push(("q3", ledger));
            if let Some(b) = backend {
                let ledger = CostLedger::paper();
                let (a1, spec) = (Query::paper_a1(), AggregateSpec::hopping_seconds(1.0, 1.0));
                plan.register_as(ledgers.len(), |plan| {
                    plan.register_aggregate(a1, spec, &[b], estimator, ledger.clone())
                });
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

    fn assert_reports_bit_identical(a: &[Sampler], b: &[Sampler]) {
        assert_eq!(a.len(), b.len());
        for (ea, eb) in a.iter().zip(b) {
            assert_eq!(ea.reports, eb.reports);
        }
    }

    /// Asserts a fleet outcome equals the per-camera [`replay`] of its
    /// workload bit for bit: the detector invocations, every statement run,
    /// the shared bill and its per-camera / per-tenant rollups, and every
    /// aggregate window report.
    fn assert_matches_replay(config: &FleetConfig, workload: Workload, outcome: &FleetOutcome, estimators: &[Sampler]) {
        let (runs, shared, replayed, invocations) = replay(config, workload);
        assert_eq!(outcome.detector_invocations, invocations, "the fleet detects no frame more or less");
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

    /// Every camera stages its batch on the pool at the machine's width
    /// (width 1 on one CPU) while the calling thread completes them in
    /// order, on repeat after repeat, and the fleet answers as its
    /// per-camera replay to the bit. With one calibrated filter object on
    /// all three cameras each camera is staged and completed in turn on the
    /// calling thread instead, since its noise stream is drawn in camera
    /// order; that fleet answers as its replay too.
    #[test]
    fn sharded_staging_is_bit_identical_at_every_width_and_repeat() {
        for shared_filter in [false, true] {
            let workload = Workload { cameras: 3, shared_filter, ..TWO_CAMERAS };
            for _ in 0..3 {
                let (outcome, estimators) = run_fleet(test_config(), workload);
                assert_matches_replay(&test_config(), workload, &outcome, &estimators);
            }
        }
    }

    const HELD_PREFIX: usize = 30;
    const HELD_GID: usize = 4;

    /// A cache a few frames deep, so the held camera's calibration prefix
    /// is evicted by whatever the cameras completed before it insert.
    fn evicting_config() -> FleetConfig {
        FleetConfig { cache_bytes: 4096, ..test_config() }
    }

    fn held_setup(backend: usize) -> DriftSetup {
        DriftSetup {
            config: DriftConfig::new(0.0),
            candidate_backends: vec![backend],
            tolerances: CascadeConfig::lattice(),
        }
    }

    /// Cameras 0 and 1 run q3 through their own filters and a brute-force
    /// q4; camera 2 holds an adaptive q3 until its 30-frame prefix arrives
    /// in the second of four 20-frame rounds.
    fn run_held_fleet() -> FleetOutcome {
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> = (0..3).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let mut fleet = FleetRuntime::new(&oracle, evicting_config());
        for (c, filter) in filters.iter().enumerate() {
            let cam = fleet.add_camera(scene_for(c as u32));
            let b = fleet.add_backend(cam, filter);
            if c == 2 {
                fleet.register_select_drifted(cam, "acme", Query::paper_q3(), HELD_PREFIX, held_setup(b));
            } else {
                fleet.register_select(cam, tenant_for(c), Query::paper_q3(), CascadeConfig::strict(), Some(b));
                fleet.register_select(cam, tenant_for(c), Query::paper_q4(), CascadeConfig::strict(), None);
            }
        }
        for _ in 0..4 {
            fleet.ingest(20);
            fleet.poll();
        }
        fleet.finish()
    }

    /// [`run_held_fleet`] as a camera-ordered `push_batch` replay over one
    /// cache and one ledger, the held camera's calibration done by hand at
    /// the start of the round its prefix arrives. Returns the runs, the
    /// shared bill, the detector invocations and the cache evictions.
    fn replay_held() -> (Vec<QueryRun>, SharedCost, u64, u64) {
        let config = evicting_config();
        let oracle = OracleDetector::perfect();
        let filters: Vec<CalibratedFilter> = (0..3).map(|c| filter_for(c, CalibrationProfile::od_like())).collect();
        let cache = DetectionCache::with_byte_budget(config.cache_bytes);
        let global = CostLedger::paper();
        let mut ledgers: Vec<(&str, CostLedger)> = Vec::new();
        let mut plans: Vec<SharedStreamPlan> = Vec::new();
        for filter in &filters {
            let batch = PipelineConfig::with_batch_size(config.batch_size);
            let mut plan = SharedStreamPlan::new(&oracle, cache.clone(), global.clone(), batch);
            let b = plan.add_backend(filter);
            if plans.len() < 2 {
                for (name, query, backend) in [("q3", Query::paper_q3(), Some(b)), ("q4", Query::paper_q4(), None)] {
                    let ledger = CostLedger::paper();
                    let strict = CascadeConfig::strict();
                    plan.register_as(ledgers.len(), |plan| {
                        plan.register_select(query, strict, backend, ledger.clone())
                    });
                    ledgers.push((name, ledger));
                }
            }
            plans.push(plan);
        }
        let mut scenes: Vec<Scene> = (0..3).map(scene_for).collect();
        let mut queues: Vec<VecDeque<Frame>> = vec![VecDeque::new(); 3];
        let mut held = true;
        let sweep = |plans: &mut [SharedStreamPlan], queues: &mut [VecDeque<Frame>], held: bool| {
            for (plan, queue) in plans.iter_mut().zip(queues).take(if held { 2 } else { 3 }) {
                let batch: Vec<Frame> = queue.drain(..queue.len().min(config.batch_size)).collect();
                if !batch.is_empty() {
                    plan.push_batch(&batch);
                }
            }
        };
        for _ in 0..4 {
            for (queue, scene) in queues.iter_mut().zip(&mut scenes) {
                queue.extend((0..20).map(|_| scene.step()));
            }
            if held && queues[2].len() >= HELD_PREFIX {
                held = false;
                let (query, filter) = (Query::paper_q3(), &filters[2]);
                let prefix: Vec<Frame> = queues[2].iter().take(HELD_PREFIX).cloned().collect();
                global.charge_shared(filter.kind().stage(), HELD_PREFIX as u64, &[HELD_GID]);
                let profile = FrameFilter::profile(filter, &prefix, global.model(), config.batch_size);
                let ledger = CostLedger::paper();
                ledger.charge_calibration(oracle.stage(), HELD_PREFIX as u64);
                let cached = CachedDetector::new(&oracle, &cache, HELD_GID, Some(global.clone()));
                let truth: Vec<bool> =
                    prefix.iter().map(|f| query.matches_detections(&cached.detect_shared(f))).collect();
                ledger.charge_calibration(filter.kind().stage(), HELD_PREFIX as u64);
                let filters: [&dyn FrameFilter; 1] = [filter];
                let (model, tolerances) = (global.model(), CascadeConfig::lattice());
                let report = plan_cascade_from_profiles(
                    &query,
                    &truth,
                    &filters,
                    &[profile],
                    &tolerances,
                    oracle.stage(),
                    model,
                    0.0,
                );
                let choice = &report.choice;
                let (cascade, backend, mode) =
                    (choice.cascade, (!choice.brute_force).then_some(0), format!("adaptive {}", choice.label));
                let row = Some(StageMetrics::calibrate(&report));
                plans[2].register_as(HELD_GID, |plan| {
                    plan.register_select_drifted(query, cascade, backend, ledger.clone(), mode, row, held_setup(0))
                });
                ledgers.push(("q3", ledger));
            }
            sweep(&mut plans, &mut queues, held);
        }
        while queues.iter().any(|queue| !queue.is_empty()) {
            sweep(&mut plans, &mut queues, held);
        }
        let runs: Vec<QueryRun> = plans.iter_mut().flat_map(|plan| plan.finish()).collect();
        let shares: Vec<(String, f64)> =
            ledgers.iter().map(|(name, ledger)| (name.to_string(), ledger.total_ms())).collect();
        (runs, global.shared_cost(&shares), global.invocations(oracle.stage()), cache.evictions())
    }

    /// The one case where a poll's cache probe can hit: a held camera's
    /// calibration detects its prefix into an evicting cache, and its first
    /// batch then probes those frames. The fleet probes and completes each
    /// camera in turn, so the cameras before the held one evict its prefix
    /// first, exactly as in a camera-ordered `push_batch` replay; the fleet
    /// equals that replay bit for bit, its detector bill included.
    #[test]
    fn an_evicting_fleet_with_a_held_camera_equals_its_camera_ordered_replay() {
        let outcome = run_held_fleet();
        let (runs, shared, invocations, evictions) = replay_held();
        assert!(outcome.cache_evictions > 0, "the cache must evict");
        assert_eq!((outcome.detector_invocations, outcome.cache_evictions), (invocations, evictions));
        let calibration = outcome.statements[HELD_GID].calibration.as_ref().expect("the held select calibrated");
        assert_eq!(calibration.prefix_frames, HELD_PREFIX);
        assert_eq!(outcome.statements.len(), runs.len());
        for (statement, run) in outcome.statements.iter().zip(&runs) {
            assert_run_bit_identical(&statement.run, run, &statement.name);
            assert_eq!(statement.run.mode, run.mode, "{}", statement.name);
        }
        assert_eq!(outcome.shared.shared_total_ms.to_bits(), shared.shared_total_ms.to_bits());
        for (a, b) in outcome.shared.queries.iter().zip(&shared.queries) {
            assert_eq!(a.attributed_ms.to_bits(), b.attributed_ms.to_bits(), "{}", a.query);
        }
    }

    /// A calibrated filter, or a perfect oracle, that panics on one
    /// camera's frame.
    struct Faulty<T> {
        inner: T,
        camera: u32,
        frame_id: u64,
    }

    impl<T> Faulty<T> {
        fn check(&self, frames: &[Frame]) {
            let hit = frames.iter().any(|f| (f.camera_id, f.frame_id) == (self.camera, self.frame_id));
            assert!(!hit, "camera {} fails", self.camera);
        }
    }

    impl FrameFilter for Faulty<CalibratedFilter> {
        fn estimate(&self, frame: &Frame) -> vmq_filters::FilterEstimate {
            self.check(std::slice::from_ref(frame));
            self.inner.estimate(frame)
        }
        fn estimate_batch(&self, frames: &[Frame]) -> Vec<vmq_filters::FilterEstimate> {
            self.check(frames);
            self.inner.estimate_batch(frames)
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

    impl Detector for Faulty<OracleDetector> {
        fn detect(&self, frame: &Frame) -> vmq_detect::FrameDetections {
            self.check(std::slice::from_ref(frame));
            self.inner.detect(frame)
        }
        fn stage(&self) -> vmq_detect::Stage {
            self.inner.stage()
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// Fault injection: a filter that panics on one camera's batch (a stage,
    /// on a pool task or the calling thread) and a detector that panics on
    /// one camera's frame (a completion, on the calling thread) each make
    /// `poll` panic with their message, whichever of four cameras fails:
    /// no poll waits for a camera that will never be staged, and every pool
    /// task is joined first. The pool serves the next fleet, which answers
    /// as its replay.
    #[test]
    fn a_panicking_filter_or_detector_fails_the_poll_and_leaves_the_pool_serving() {
        for camera in 0..4 {
            for filter_fails in [true, false] {
                let caught = std::panic::catch_unwind(|| {
                    // Frame 30 of the camera arrives in the second round.
                    let fails = |fault: bool| if fault { 30 } else { u64::MAX };
                    let detector = Faulty { inner: OracleDetector::perfect(), camera, frame_id: fails(!filter_fails) };
                    let filters: Vec<Faulty<CalibratedFilter>> = (0..4)
                        .map(|c| {
                            let inner = filter_for(c, CalibrationProfile::od_like());
                            Faulty { inner, camera, frame_id: fails(filter_fails && c == camera) }
                        })
                        .collect();
                    let mut fleet = FleetRuntime::new(&detector, test_config());
                    for (c, filter) in filters.iter().enumerate() {
                        let cam = fleet.add_camera(scene_for(c as u32));
                        let b = fleet.add_backend(cam, filter);
                        fleet.register_select(cam, "acme", Query::paper_q4(), CascadeConfig::strict(), None);
                        fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
                    }
                    for _ in 0..4 {
                        fleet.ingest(20);
                        fleet.poll();
                    }
                });
                let payload = caught.expect_err("the fault fails the poll");
                assert_eq!(payload.downcast_ref::<String>(), Some(&format!("camera {camera} fails")));
            }
        }
        let (outcome, estimators) = run_fleet(test_config(), TWO_CAMERAS);
        assert_matches_replay(&test_config(), TWO_CAMERAS, &outcome, &estimators);
    }

    /// A learned filter's rows report the width its decode ran at: the
    /// machine's for a camera polled alone, whose stage opens its decode
    /// scope on the calling thread, and 1 for cameras staged together on
    /// the pool, where that scope runs inline.
    #[test]
    fn learned_rows_report_the_width_their_decode_ran_at() {
        let oracle = OracleDetector::perfect();
        let config = vmq_filters::FilterConfig::fast_test(DatasetProfile::jackson().class_list());
        let widths = |cameras: u32| -> Vec<usize> {
            let filters: Vec<vmq_filters::OdFilter> =
                (0..cameras).map(|_| vmq_filters::OdFilter::new(config.clone())).collect();
            let mut fleet = FleetRuntime::new(&oracle, test_config());
            for (c, filter) in filters.iter().enumerate() {
                let cam = fleet.add_camera(scene_for(c as u32));
                let b = fleet.add_backend(cam, filter);
                fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
            }
            fleet.ingest(48);
            let outcome = fleet.finish();
            let filter_width = |s: &FleetStatementOutcome| {
                let row = s.run.stage_metrics.iter().find(|m| m.operator == "cascade-filter");
                row.expect("a cascade-filter row").workers
            };
            outcome.statements.iter().map(filter_width).collect()
        };
        assert_eq!(widths(1), [vmq_exec::parallelism()]);
        assert_eq!(widths(2), [1, 1], "staged on the pool, the decode ran inline");
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
                config: DriftConfig::new(0.0),
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
        let mut estimator = Sampler::new(Query::paper_a1(), 8, 4, 90);
        let mut unshed = Sampler::new(Query::paper_a1(), 8, 4, 90);
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
        assert!(estimator.shed_windows > 0, "some windows ran degraded");

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
        assert_eq!(estimator.reports.len(), unshed.reports.len(), "every window still reports");
    }
}
