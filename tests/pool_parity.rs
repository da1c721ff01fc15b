//! Pool-vs-reference parity: every sharded stage — the IC / OD / OD-COF
//! filters, their int8 twins and detector escalation through the shared
//! plan — must be bit-identical between the persistent `vmq_exec` pool and
//! the `VMQ_NO_POOL=1` spawn-per-task reference path, across batch sizes
//! {1, 7, 32} × worker counts {1, 2, 4}. (The calibrated filter runs on the
//! calling thread and never reaches the pool.) A plan's network decode
//! shards over the whole machine even when no worker count is asked for, so
//! the default plan gets the same check, plus one against a sequential
//! decode. The fleet's coalesced cross-camera detect dispatch gets the same
//! treatment: a fleet on the pool and the same fleet on spawned threads
//! must agree on every statement outcome. (Coalesced vs per-camera
//! detection is the fleet's own unit tests' business.)
//!
//! The execution mode is a process-global toggle; both paths compute
//! identical results by contract, so flipping it around a run can never make
//! a comparison fail spuriously — it only decides which path provides the
//! sample under comparison. This file is the pool's whole parity gate — CI
//! runs no separate `VMQ_NO_POOL=1` pass over the suite; the env var and the
//! spawn path exist as the reference these tests compare against.

#[path = "common/sequential.rs"]
mod sequential;

use proptest::prelude::*;
use sequential::Sequential;
use vmq::detect::{CostLedger, DetectionCache, OracleDetector};
use vmq::engine::{FleetConfig, FleetRuntime};
use vmq::filters::{
    estimate_shared, CalibratedFilter, CalibrationProfile, CofFilter, FilterConfig, FilterEstimate, FrameFilter,
    IcFilter, OdFilter, QuantizedCofFilter, QuantizedIcFilter, QuantizedOdFilter,
};
use vmq::query::{CascadeConfig, PipelineConfig, Query, QueryRun, SharedStreamPlan};
use vmq::video::{DatasetProfile, Frame, ObjectClass, Scene, SceneConfig};

/// Runs `f` with the executor pinned to the pool (`spawn = false`) or the
/// spawn-per-task reference (`spawn = true`), restoring the prior mode.
fn with_mode<R>(spawn: bool, f: impl FnOnce() -> R) -> R {
    let was = vmq::exec::spawn_mode();
    vmq::exec::set_spawn_mode(spawn);
    let out = f();
    vmq::exec::set_spawn_mode(was);
    out
}

fn scene_frames(camera: u32, seed: u64, n: usize) -> Vec<Frame> {
    let config = SceneConfig::from_profile(&DatasetProfile::jackson()).with_camera(camera);
    let mut scene = Scene::new(config, seed);
    (0..n).map(|_| scene.step()).collect()
}

fn assert_estimates_bit_identical(a: &[FilterEstimate], b: &[FilterEstimate], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (i, (ea, eb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ea.counts, eb.counts, "{ctx} frame {i} counts");
        assert_eq!(ea.total_hint, eb.total_hint, "{ctx} frame {i} total_hint");
        for (ga, gb) in ea.grids.iter().zip(&eb.grids) {
            assert_eq!(ga.cells(), gb.cells(), "{ctx} frame {i} grid");
        }
    }
}

fn assert_runs_bit_identical(a: &[QueryRun], b: &[QueryRun], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.matched_frames, rb.matched_frames, "{ctx} {}", ra.query);
        assert_eq!(ra.frames_passed_filter, rb.frames_passed_filter, "{ctx} {}", ra.query);
        assert_eq!(ra.frames_detected, rb.frames_detected, "{ctx} {}", ra.query);
        assert_eq!(ra.virtual_ms.to_bits(), rb.virtual_ms.to_bits(), "{ctx} {}", ra.query);
    }
}

/// One shared-plan pass (CAL backend + q3 select, fresh cache and ledgers)
/// over `frames`: filter sharding, detect sharding and cache probing all run
/// under whatever executor mode is active.
fn shared_plan_run(frames: &[Frame], cal_seed: u64, workers: usize, batch: usize) -> Vec<QueryRun> {
    let oracle = OracleDetector::perfect();
    let classes = DatasetProfile::jackson().class_list();
    let filter = CalibratedFilter::new(classes, 14, CalibrationProfile::od_like(), cal_seed);
    let mut plan = SharedStreamPlan::new(
        &oracle,
        DetectionCache::new(),
        CostLedger::paper(),
        PipelineConfig::with_batch_size(batch),
    )
    .with_workers(workers);
    let b = plan.add_backend(&filter);
    plan.register_select(Query::paper_q3(), CascadeConfig::strict(), Some(b), CostLedger::paper());
    plan.execute_slice(frames)
}

/// `nn_select`'s shape on a plan built without `with_workers`: learned IC
/// and OD, which read one raster and so form one decode group, under two a1
/// selects at cascades (0,0) and (0,1).
fn default_decode_run(ic: &dyn FrameFilter, od: &dyn FrameFilter, frames: &[Frame], batch: usize) -> Vec<QueryRun> {
    let oracle = OracleDetector::perfect();
    let mut plan = SharedStreamPlan::new(
        &oracle,
        DetectionCache::new(),
        CostLedger::paper(),
        PipelineConfig::with_batch_size(batch),
    );
    let ic = plan.add_backend(ic);
    let od = plan.add_backend(od);
    let od_cascade = CascadeConfig { count_tolerance: 0, location_tolerance: 1 };
    plan.register_select(Query::paper_a1(), CascadeConfig::strict(), Some(ic), CostLedger::paper());
    plan.register_select(Query::paper_a1(), od_cascade, Some(od), CostLedger::paper());
    plan.execute_slice(frames)
}

/// A three-camera select-only fleet over identically seeded scenes.
fn fleet_run(workers: usize, frames_per_camera: usize) -> Vec<QueryRun> {
    let oracle = OracleDetector::perfect();
    let classes = DatasetProfile::jackson().class_list();
    let filters: Vec<CalibratedFilter> =
        (0..3).map(|c| CalibratedFilter::new(classes.clone(), 14, CalibrationProfile::od_like(), 77 + c)).collect();
    let mut fleet = FleetRuntime::new(
        &oracle,
        FleetConfig { batch_size: 16, workers, queue_capacity: 512, ..FleetConfig::default() },
    );
    for (c, filter) in filters.iter().enumerate() {
        let config = SceneConfig::from_profile(&DatasetProfile::jackson()).with_camera(c as u32);
        let cam = fleet.add_camera(Scene::new(config, 4000 + c as u64));
        let b = fleet.add_backend(cam, filter);
        fleet.register_select(cam, "acme", Query::paper_q3(), CascadeConfig::strict(), Some(b));
    }
    for _ in 0..3 {
        fleet.ingest(frames_per_camera / 3);
        fleet.poll();
    }
    fleet.finish().statements.into_iter().map(|s| s.run).collect()
}

proptest! {
    // Each case sweeps the full matrix under both executor modes; a few
    // random scenes give the coverage without minutes of wall time.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// IC / OD / OD-COF and their int8 twins: sharded batch estimates from
    /// the pool match the spawn-per-task reference bit for bit across the
    /// {1, 7, 32} × {1, 2, 4} matrix.
    #[test]
    fn filter_stages_match_between_pool_and_spawn_reference(
        seed in 0u64..500,
        nframes in 1usize..33,
    ) {
        let frames = scene_frames(0, seed, nframes);
        let config = FilterConfig::fast_test(vec![ObjectClass::Car, ObjectClass::Person, ObjectClass::Bus]);
        let ic = IcFilter::new(config.clone());
        let od = OdFilter::new(config.clone());
        let cof = CofFilter::new(config);
        let calib = &frames[..frames.len().min(4)];
        let ic8 = QuantizedIcFilter::from_trained(&ic, calib);
        let od8 = QuantizedOdFilter::from_trained(&od, calib);
        let cof8 = QuantizedCofFilter::from_trained(&cof, calib);
        for batch in [1usize, 7, 32] {
            for workers in [1usize, 2, 4] {
                for filter in [&ic as &dyn FrameFilter, &od, &cof, &ic8, &od8, &cof8] {
                    let run = |spawn: bool| {
                        with_mode(spawn, || {
                            let mut out: Vec<FilterEstimate> = Vec::new();
                            for chunk in frames.chunks(batch) {
                                out.extend(filter.estimate_batch_sharded(chunk, workers));
                            }
                            out
                        })
                    };
                    let ctx = format!("{:?} batch={batch} workers={workers}", filter.kind());
                    assert_estimates_bit_identical(&run(false), &run(true), &ctx);
                }
            }
        }
    }

    /// Detector escalation through the shared plan (cache probe + sharded
    /// detect + exact eval): pooled and reference runs agree on matches,
    /// detector counts and the virtual-time bill, bit for bit.
    #[test]
    fn detect_stage_matches_between_pool_and_spawn_reference(
        seed in 0u64..500,
        nframes in 8usize..64,
    ) {
        let frames = scene_frames(1, seed, nframes);
        for batch in [1usize, 7, 32] {
            for workers in [1usize, 2, 4] {
                let pooled = with_mode(false, || shared_plan_run(&frames, seed, workers, batch));
                let spawned = with_mode(true, || shared_plan_run(&frames, seed, workers, batch));
                assert_runs_bit_identical(&pooled, &spawned, &format!("batch={batch} workers={workers}"));
            }
        }
    }

    /// The default plan's network decode: the IC + OD group sharded over
    /// [`vmq::exec::parallelism`] on the pool, the same plan on spawned
    /// threads, and the same filters with their rasters hidden (each decoded
    /// alone, sequentially) agree on every run and every estimate.
    #[test]
    fn default_decode_matches_spawn_and_sequential_references(
        seed in 0u64..500,
        nframes in 1usize..41,
    ) {
        let frames = scene_frames(2, seed, nframes);
        let config = FilterConfig::fast_test(DatasetProfile::jackson().class_list());
        let ic = IcFilter::new(config.clone());
        let od = OdFilter::new(config);
        let group: [&dyn FrameFilter; 2] = [&ic, &od];
        let width = vmq::exec::parallelism();
        for batch in [1usize, 7, 32] {
            let ctx = format!("batch={batch} width={width}");
            let pooled = with_mode(false, || default_decode_run(&ic, &od, &frames, batch));
            let spawned = with_mode(true, || default_decode_run(&ic, &od, &frames, batch));
            let sequential = default_decode_run(&Sequential(&ic), &Sequential(&od), &frames, batch);
            assert_runs_bit_identical(&pooled, &spawned, &ctx);
            assert_runs_bit_identical(&pooled, &sequential, &ctx);
            let decode = |spawn: bool| {
                with_mode(spawn, || {
                    let mut out: Vec<Vec<FilterEstimate>> = vec![Vec::new(); group.len()];
                    for chunk in frames.chunks(batch) {
                        for (column, estimates) in out.iter_mut().zip(estimate_shared(&group, chunk, width)) {
                            column.extend(estimates);
                        }
                    }
                    out
                })
            };
            let (pooled, spawned) = (decode(false), decode(true));
            for ((filter, pooled), spawned) in group.iter().zip(&pooled).zip(&spawned) {
                let ctx = format!("{:?} {ctx}", filter.kind());
                let sequential: Vec<FilterEstimate> =
                    frames.chunks(batch).flat_map(|chunk| Sequential(*filter).estimate_batch(chunk)).collect();
                assert_estimates_bit_identical(pooled, spawned, &ctx);
                assert_estimates_bit_identical(pooled, &sequential, &ctx);
            }
        }
    }
}

/// Coalesced fleet sweeps on the persistent pool vs the same sweeps on the
/// spawn-per-task reference: every statement outcome must be bit-identical,
/// because the executor is a pure wall-clock knob.
#[test]
fn fleet_pool_matches_spawn_reference() {
    let pooled = with_mode(false, || fleet_run(2, 60));
    let spawned = with_mode(true, || fleet_run(2, 60));
    assert_runs_bit_identical(&pooled, &spawned, "fleet");
}
