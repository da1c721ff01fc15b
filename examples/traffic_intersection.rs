//! Traffic-intersection monitoring: spatial constraints between vehicles on a
//! dense traffic camera (the Detrac-style workload of the paper's intro).
//!
//! The query asks for frames where a car is to the left of a bus (query q7
//! without the exact-count constraints), evaluated incrementally: frames
//! arrive from the camera and are pushed into the executor one batch at a
//! time, the filter cascade decides which frames are worth detecting, and
//! the expensive detector confirms survivors.
//!
//! ```bash
//! cargo run --release --example traffic_intersection
//! ```

use vmq::detect::{CostLedger, DetectionCache, OracleDetector};
use vmq::filters::{CalibratedFilter, CalibrationProfile};
use vmq::query::{CascadeConfig, ObjectRef, PipelineConfig, Query, SharedStreamPlan, SpatialRelation};
use vmq::video::{DatasetProfile, FrameStream, ObjectClass, Scene, SceneConfig};

fn main() {
    let profile = DatasetProfile::detrac();

    // A continuous monitoring query: a car to the left of a bus, with at
    // least one of each present.
    let query = Query::new("car-left-of-bus")
        .class_count(ObjectClass::Car, vmq::query::ast::CountOp::AtLeast, 1)
        .class_count(ObjectClass::Bus, vmq::query::ast::CountOp::AtLeast, 1)
        .spatial(ObjectRef::class(ObjectClass::Car), SpatialRelation::LeftOf, ObjectRef::class(ObjectClass::Bus));

    // The filter: here a calibrated OD-like filter so the example runs in a
    // couple of seconds; swap in a trained `OdFilter` (see the quickstart)
    // for the learned pipeline.
    let filter = CalibratedFilter::new(profile.class_list(), 28, CalibrationProfile::od_like(), 11);
    let oracle = OracleDetector::perfect();

    // A live stream of 2 000 frames from the simulated camera.
    let scene = Scene::new(SceneConfig::from_profile(&profile).with_camera(3), 99);
    let stream = FrameStream::with_length(scene, 2000);

    println!("monitoring 2000 frames of a simulated {} camera...", profile.kind.name());
    let config = PipelineConfig::with_batch_size(64);
    // A few batches of detections stay resident, however long the stream.
    let cache = DetectionCache::with_entry_budget(4 * config.batch_size);
    let mut plan = SharedStreamPlan::new(&oracle, cache, CostLedger::paper(), config);
    let backend = plan.add_backend(&filter);
    plan.register_select(query, CascadeConfig::tolerant(), Some(backend), CostLedger::paper());
    let mut batch = Vec::with_capacity(config.batch_size);
    for frame in stream {
        batch.push(frame);
        if batch.len() == config.batch_size {
            plan.push_batch(&batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        plan.push_batch(&batch);
    }
    let run = plan.finish().remove(0);

    println!("mode:                  {}", run.mode);
    println!("frames processed:      {}", run.frames_total);
    println!("passed filter cascade: {} ({:.1}%)", run.frames_passed_filter, run.filter_pass_rate() * 100.0);
    println!("frames matching query: {}", run.matched_frames.len());
    println!(
        "virtual time:          {:.1}s (brute force would cost {:.1}s)",
        run.virtual_seconds(),
        run.frames_total as f64 * 0.20005
    );
    println!(
        "filter wall-clock:     {:.1} ms total ({:.3} ms/frame)",
        run.filter_wall_ms,
        run.filter_wall_ms / run.frames_total as f64
    );
    let first: Vec<u64> = run.matched_frames.iter().take(10).copied().collect();
    println!("first matches:         {first:?}");
}
