//! Pool parity: every sharded filter stage — the IC / OD / OD-COF filters
//! and their int8 twins, alone and decoded as one group — must be bit
//! identical at every width to the width-1 run, which opens no pool scope at
//! all, across batch sizes {1, 7, 32} × widths {2, 4}. (The calibrated
//! filter runs on the calling thread and never reaches the pool.) A fleet
//! poll stages cameras on the pool at the machine's width while the calling
//! thread completes them in camera order; `FleetConfig::workers` no longer
//! sets any width, so a fleet configured with two workers and the same
//! fleet with one must agree on every statement outcome. (Plans and fleets,
//! whose widths are derived, are pinned against the naive reference in
//! `statement_differential.rs`.)

use proptest::prelude::*;
use vmq::detect::OracleDetector;
use vmq::engine::{FleetConfig, FleetRuntime};
use vmq::filters::{
    estimate_shared, CalibratedFilter, CalibrationProfile, CofFilter, FilterConfig, FilterEstimate, FrameFilter,
    IcFilter, OdFilter, QuantizedCofFilter, QuantizedIcFilter, QuantizedOdFilter,
};
use vmq::query::{CascadeConfig, Query, QueryRun};
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

    /// A plan's default decode of learned backends that read one raster:
    /// IC and OD decoded together from one render per frame
    /// (`estimate_shared`) at widths 1, 2 and 4 match each filter's
    /// sequential per-frame `estimate`, at batch sizes {1, 7, 32}.
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
        let sequential: Vec<Vec<FilterEstimate>> =
            group.iter().map(|filter| frames.iter().map(|frame| filter.estimate(frame)).collect()).collect();
        for batch in [1usize, 7, 32] {
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

/// A fleet configured with two workers vs the same fleet with one: every
/// statement outcome must be bit-identical, because `poll` ignores the
/// field. This pins that the value `benchmark/` sets stays inert until the
/// field is deleted.
#[test]
fn fleet_on_two_workers_matches_the_one_worker_fleet() {
    assert_runs_bit_identical(&fleet_run(2, 60), &fleet_run(1, 60), "fleet");
}
