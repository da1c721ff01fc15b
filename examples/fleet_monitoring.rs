//! Fleet monitoring: many cameras × many standing statements, one process.
//!
//! Scales the multi-tenant example out to a camera fleet: every camera gets
//! its own simulated scene (seed, frame rate) and its own standing
//! statements, while the [`FleetRuntime`](vmq::engine::FleetRuntime)
//! provides the shared substrate — one byte-budgeted detection cache, one
//! fleet-global cost ledger with per-camera/per-tenant rollups, bounded
//! per-camera ingest queues and a round-robin scheduler that sheds
//! aggregate *sampling* (never select recall) under overload.
//!
//! ```bash
//! cargo run --release --example fleet_monitoring
//! ```

use vmq::aggregate::WindowedAggregator;
use vmq::detect::OracleDetector;
use vmq::engine::{FleetConfig, FleetRuntime};
use vmq::filters::{CalibratedFilter, CalibrationProfile};
use vmq::query::{AggregateSpec, CascadeConfig, Query};
use vmq::video::{camera_fleet, DatasetProfile};

const CAMERAS: usize = 12;
const FRAMES_PER_CAMERA: usize = 120;
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

fn main() {
    let oracle = OracleDetector::perfect();

    // Per-camera filter backends (each camera's calibrated filter runs its
    // own noise stream; a trained network could be shared by reference).
    let profiles = [DatasetProfile::jackson(), DatasetProfile::detrac()];
    let filters: Vec<CalibratedFilter> = (0..CAMERAS)
        .map(|c| CalibratedFilter::new(profiles[c % 2].class_list(), 14, CalibrationProfile::od_like(), 7 + c as u64))
        .collect();
    let mut estimators: Vec<WindowedAggregator> =
        (0..CAMERAS).map(|c| WindowedAggregator::new(Query::paper_a1(), 12, 8, 40 + c as u64)).collect();

    // Three statements per camera: two selects and a wall-clock-windowed
    // aggregate, owned by round-robin tenants.
    let mut fleet =
        FleetRuntime::new(&oracle, FleetConfig { batch_size: 32, queue_capacity: 64, ..FleetConfig::default() });
    for ((c, scene), (filter, estimator)) in
        camera_fleet(&profiles, CAMERAS, 0xCA3).into_iter().enumerate().zip(filters.iter().zip(&mut estimators))
    {
        let tenant = TENANTS[c % TENANTS.len()];
        let cam = fleet.add_camera(scene);
        let b = fleet.add_backend(cam, filter);
        fleet.register_select(cam, tenant, Query::paper_q3(), CascadeConfig::strict(), Some(b));
        fleet.register_select(cam, tenant, Query::paper_q1(), CascadeConfig::tolerant(), Some(b));
        fleet.register_aggregate(
            cam,
            tenant,
            Query::paper_a1(),
            AggregateSpec::hopping_seconds(2.0, 2.0),
            &[b],
            estimator,
        );
    }

    // Ingest in bursts and let the scheduler interleave every camera's
    // batches through the shared cache and worker pool.
    for _ in 0..4 {
        let dropped = fleet.ingest(FRAMES_PER_CAMERA / 4);
        assert_eq!(dropped, 0, "queues sized for the burst");
        fleet.poll();
    }
    let outcome = fleet.finish();

    println!("=== fleet: {CAMERAS} cameras, {} standing statements ===", outcome.statements.len());
    println!(
        "frames {} | detector calls {} | cache hits {} | evictions {}",
        outcome.frames_ingested, outcome.detector_invocations, outcome.cache_hits, outcome.cache_evictions
    );

    println!("\n=== per-camera attribution (deduplicated fleet bill) ===");
    for group in &outcome.by_camera {
        println!(
            "{}: {} statements, attributed {:.0} ms (isolated would be {:.0} ms)",
            group.group, group.statements, group.attributed_ms, group.isolated_ms
        );
    }

    println!("\n=== per-tenant attribution ===");
    for group in &outcome.by_tenant {
        println!(
            "{}: {} statements, attributed {:.0} ms, saved {:.0} ms vs isolated",
            group.group,
            group.statements,
            group.attributed_ms,
            group.saved_ms()
        );
    }

    println!("\n=== sample statements (camera 0) ===");
    for stmt in outcome.statements.iter().take(3) {
        println!(
            "camera-{:02} [{}] {} [{}]: {} matches over {} frames, virtual {:.1} s",
            stmt.camera_id,
            stmt.tenant,
            stmt.name,
            stmt.run.mode,
            stmt.run.matched_frames.len(),
            stmt.run.frames_total,
            stmt.run.virtual_seconds()
        );
    }
    let windows: usize = estimators.iter().map(|e| e.reports().len()).sum();
    println!("\naggregates: {windows} wall-clock windows estimated across the fleet");
}
