//! Pool parity: every sharded stage — the IC / OD / OD-COF filters, their
//! int8 twins and detector escalation through the shared plan — must be bit
//! identical at every width to the width-1 run, which opens no pool scope at
//! all, across batch sizes {1, 7, 32} × widths {2, 4}. (The calibrated
//! filter runs on the calling thread and never reaches the pool.) A plan's
//! network decode shards over the whole machine even when no worker count is
//! asked for, so the default plan is checked against a sequential decode.
//! The fleet's coalesced cross-camera detect dispatch gets the same
//! treatment: a fleet on two workers and the same fleet on one must agree
//! on every statement outcome. (Coalesced vs per-camera detection is the
//! fleet's own unit tests' business.)

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
/// over `frames`: filter sharding, detect sharding over `workers` and cache
/// probing.
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
    // Each case sweeps the full matrix; a few random scenes give the
    // coverage without minutes of wall time.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// IC / OD / OD-COF and their int8 twins: sharded batch estimates at
    /// widths 2 and 4 match the width-1 run bit for bit at batch sizes
    /// {1, 7, 32}.
    #[test]
    fn filter_stages_match_the_width_one_run(
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
            for filter in [&ic as &dyn FrameFilter, &od, &cof, &ic8, &od8, &cof8] {
                let run = |workers: usize| -> Vec<FilterEstimate> {
                    frames.chunks(batch).flat_map(|chunk| filter.estimate_batch_sharded(chunk, workers)).collect()
                };
                let reference = run(1);
                for workers in [2usize, 4] {
                    let ctx = format!("{:?} batch={batch} workers={workers}", filter.kind());
                    assert_estimates_bit_identical(&run(workers), &reference, &ctx);
                }
            }
        }
    }

    /// Detector escalation through the shared plan (cache probe + sharded
    /// detect + exact eval): runs at widths 2 and 4 agree with the width-1
    /// run on matches, detector counts and the virtual-time bill, bit for bit.
    #[test]
    fn detect_stage_matches_the_width_one_run(
        seed in 0u64..500,
        nframes in 8usize..64,
    ) {
        let frames = scene_frames(1, seed, nframes);
        for batch in [1usize, 7, 32] {
            let reference = shared_plan_run(&frames, seed, 1, batch);
            for workers in [2usize, 4] {
                let sharded = shared_plan_run(&frames, seed, workers, batch);
                assert_runs_bit_identical(&sharded, &reference, &format!("batch={batch} workers={workers}"));
            }
        }
    }

    /// The default plan's network decode: the IC + OD group sharded over
    /// [`vmq::exec::parallelism`], and the same filters with their rasters
    /// hidden (each decoded alone, sequentially), agree on every run; the
    /// group's shared decode at widths 1, 2 and 4 agrees with the sequential
    /// decode on every estimate.
    #[test]
    fn default_decode_matches_the_sequential_reference(
        seed in 0u64..500,
        nframes in 1usize..41,
    ) {
        let frames = scene_frames(2, seed, nframes);
        let config = FilterConfig::fast_test(DatasetProfile::jackson().class_list());
        let ic = IcFilter::new(config.clone());
        let od = OdFilter::new(config);
        let group: [&dyn FrameFilter; 2] = [&ic, &od];
        for batch in [1usize, 7, 32] {
            let ctx = format!("batch={batch} width={}", vmq::exec::parallelism());
            let default = default_decode_run(&ic, &od, &frames, batch);
            let sequential = default_decode_run(&Sequential(&ic), &Sequential(&od), &frames, batch);
            assert_runs_bit_identical(&default, &sequential, &ctx);
            let sequential: Vec<Vec<FilterEstimate>> = group
                .iter()
                .map(|&filter| frames.chunks(batch).flat_map(|chunk| Sequential(filter).estimate_batch(chunk)).collect())
                .collect();
            for width in [1usize, 2, 4] {
                let mut shared: Vec<Vec<FilterEstimate>> = vec![Vec::new(); group.len()];
                for chunk in frames.chunks(batch) {
                    for (column, estimates) in shared.iter_mut().zip(estimate_shared(&group, chunk, width)) {
                        column.extend(estimates);
                    }
                }
                for ((filter, shared), sequential) in group.iter().zip(&shared).zip(&sequential) {
                    let ctx = format!("{:?} batch={batch} width={width}", filter.kind());
                    assert_estimates_bit_identical(shared, sequential, &ctx);
                }
            }
        }
    }
}

/// Coalesced fleet sweeps sharded over two pool workers vs the same sweeps
/// on one: every statement outcome must be bit-identical, because the
/// worker count is a pure wall-clock knob.
#[test]
fn fleet_on_two_workers_matches_the_one_worker_fleet() {
    assert_runs_bit_identical(&fleet_run(2, 60), &fleet_run(1, 60), "fleet");
}
