//! Quickstart: train the approximate filters on a simulated surveillance
//! stream and run a declarative monitoring query with a filter cascade.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use vmq::engine::{CalibrationConfig, EngineConfig, FilterChoice, RuntimeQuery, VmqEngine};
use vmq::query::{CascadeConfig, Query};
use vmq::video::DatasetProfile;

fn main() {
    // 1. Register a video source. The Jackson profile models a fixed camera
    //    over a quiet intersection (mostly cars, a few pedestrians).
    let config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(150, 300);
    let mut engine = VmqEngine::new(config);
    println!(
        "dataset: {} ({} train frames, {} test frames)",
        engine.dataset().kind().name(),
        engine.dataset().train().len(),
        engine.dataset().test().len()
    );

    // 2. Train the IC / OD / OD-COF filters. Labels come from the expensive
    //    oracle detector, exactly as Mask R-CNN annotates the paper's data.
    println!("training filters...");
    engine.train_filters();

    // 3. Register query q3 of the paper — frames with exactly one car and
    //    exactly one person — on the engine's runtime, twice: once behind a
    //    fixed OD cascade, whose count estimates gate the expensive detector
    //    (only candidate frames pay the 200 ms detection cost), and once
    //    letting the adaptive planner choose: it profiles the trained IC and
    //    OD backends against the full CCF/CLF tolerance lattice on a stream
    //    prefix and runs the cheapest combination that kept 100 % recall
    //    there. Both run in one shared pass over the stream.
    let query = Query::paper_q3();
    let mut runtime = engine.runtime();
    runtime.register(RuntimeQuery::Select {
        query: query.clone(),
        choice: FilterChoice::Od,
        cascade: CascadeConfig::tolerant(),
    });
    runtime.register(RuntimeQuery::SelectAdaptive { query, calibration: CalibrationConfig::learned(), drift: None });
    let shared = runtime.run();
    let outcome = shared.outcomes[0].as_select().expect("a fixed select");

    println!("\n{}", outcome.summary());
    println!(
        "frames: {} total, {} passed the filter cascade, {} sent to the detector",
        outcome.run.frames_total, outcome.run.frames_passed_filter, outcome.run.frames_detected
    );
    println!(
        "matched frames: {:?}{}",
        &outcome.run.matched_frames[..outcome.run.matched_frames.len().min(10)],
        if outcome.run.matched_frames.len() > 10 { " ..." } else { "" }
    );
    println!(
        "virtual time: filtered {:.1}s vs brute force {:.1}s  (speedup {:.1}x, recall {:.0}%)",
        outcome.run.virtual_seconds(),
        outcome.brute_force.virtual_seconds(),
        outcome.speedup.speedup,
        outcome.accuracy.recall * 100.0
    );

    // 4. Per-operator breakdown of the batched execution pipeline.
    println!("\n{}", outcome.stage_report().render());

    // 5. The adaptive plan instead of the guessed cascade above. Its reported
    //    virtual time includes the calibration bill (the `calibrate` row
    //    below).
    let adaptive = shared.outcomes[1].as_adaptive().expect("an adaptive select");
    println!(
        "adaptive planner chose {} (expected selectivity {:.0}%)",
        adaptive.plan().label,
        adaptive.plan().expected_selectivity * 100.0
    );
    println!("\n{}", adaptive.summary());
    println!("\n{}", adaptive.stage_report().render());
}
