//! Parking-violation monitoring (the paper's Fig. 1(b) motivation): flag
//! windows of the stream in which a car stays inside a no-parking zone for
//! most of the window — "a car next to the stop sign for more than 10
//! minutes may be parked illegally".
//!
//! The example builds a custom screen region (the no-parking zone), defines
//! the per-frame predicate "a car overlaps the zone", and registers it as a
//! hopping-window aggregate: for every window the executor estimates the
//! fraction of frames satisfying the predicate using sampling with a control
//! variate. Windows whose estimated fraction exceeds a threshold are reported
//! as violations.
//!
//! ```bash
//! cargo run --release --example parking_violation
//! ```

use vmq::aggregate::WindowedAggregator;
use vmq::detect::OracleDetector;
use vmq::filters::{CalibratedFilter, CalibrationProfile};
use vmq::query::{AggregateSpec, ObjectRef, Query, QueryExecutor, RegionCatalog};
use vmq::video::{BoundingBox, DatasetProfile, FrameStream, ObjectClass, Scene, SceneConfig};

fn main() {
    let profile = DatasetProfile::jackson();

    // The no-parking zone: a strip along the bottom-right of the screen.
    let mut catalog = RegionCatalog::standard();
    catalog.insert("no-parking-zone", BoundingBox::new(0.55, 0.65, 0.45, 0.35));

    // Per-frame predicate: at least one car overlapping the zone.
    let query = Query::new("car-in-no-parking-zone")
        .in_region(ObjectRef::class(ObjectClass::Car), "no-parking-zone", 1)
        .with_catalog(catalog);

    // 4 minutes of simulated video at 30 fps, split into 30-second windows of
    // stream time. A time window closes when a frame at or past its end
    // arrives, so the stream runs one frame past the four minutes.
    let scene = Scene::new(SceneConfig::from_profile(&profile), 4242);
    let frames: Vec<_> = FrameStream::with_length(scene, 7201).collect();
    println!("stream: {} frames, window = 30 s of stream time", frames.len());

    let filter = CalibratedFilter::new(profile.class_list(), 28, CalibrationProfile::od_like(), 3);
    let oracle = OracleDetector::perfect();
    let violation_threshold = 0.8; // car present for ≥ 80 % of the window

    // 60 detector-sampled frames per window, one estimate per window.
    let mut estimator = WindowedAggregator::new(query.clone(), 60, 1, 1000);
    let spec = AggregateSpec::hopping_seconds(30.0, 30.0);
    QueryExecutor::new(query).run_aggregate(&frames, spec, &[&filter], &oracle, &mut estimator);

    println!("{:<10} {:>16} {:>14} {:>10}", "window", "est. occupancy", "true occupancy", "flag");
    for report in estimator.reports() {
        let flagged = report.cv_mean >= violation_threshold;
        println!(
            "{:<10} {:>15.1}% {:>13.1}% {:>10}",
            format!("{}-{}", report.window_start, report.window_start + report.window_frames),
            report.cv_mean * 100.0,
            report.true_fraction * 100.0,
            if flagged { "VIOLATION" } else { "-" }
        );
    }
    println!(
        "\nA window is flagged when the estimated occupancy of the no-parking zone exceeds {:.0}%.",
        violation_threshold * 100.0
    );
    println!("Each window samples only 60 frames with the expensive detector; the cheap filter runs on every frame as the control variate.");
}
