//! Drift-injection suite: a stream whose regime flips mid-way invalidates
//! the calibration committed on the prefix. The drift monitor's audit
//! channel must notice the contradiction, re-plan to a still-certifiable
//! cascade, repair the missed window frames, and keep the whole exercise —
//! audit sentinels, replanning, catch-up — billed to the query's ledger so
//! the net speedup claim stays honest. Audit-off runs must be bit-identical
//! to a plain one-shot registration.

#[path = "common/drift.rs"]
mod drift;

use drift::{
    drift_query, drift_stream, run_drift_scenario, run_drift_scenario_seeded, scenario_drift_config, RegimeShiftFilter,
    DRIFT_FLIP_AT, DRIFT_PREFIX, DRIFT_STREAM_SEED, DRIFT_TOTAL_FRAMES,
};
use proptest::prelude::*;
use vmq::detect::OracleDetector;
use vmq::engine::{FleetConfig, FleetRuntime};
use vmq::query::{CascadeConfig, DriftConfig, DriftSetup};

/// With the monitor attached, the regime flip is detected, the plan is
/// swapped mid-stream (to a cascade, not brute force), recall is perfect,
/// and the run still beats brute force net of calibration/audit/replan.
#[test]
fn monitor_recovers_recall_after_regime_flip() {
    let outcome = run_drift_scenario(Some(scenario_drift_config()));

    // The one-shot prefix calibration certified a cascade (drift matters
    // only because the committed plan is a filter plan).
    assert!(!outcome.calibration.choice.brute_force, "prefix calibration should certify a cascade");

    // The monitor noticed the flip and swapped plans at least once, after
    // the flip, and its final committed plan is a cascade again.
    assert!(!outcome.run.replans.is_empty(), "monitor should replan after the regime flip");
    let last = outcome.run.replans.last().unwrap();
    assert!(last.at_offset >= DRIFT_FLIP_AT, "replan should happen after the flip (got {})", last.at_offset);
    assert!(!last.brute_force, "monitor should re-certify a cascade, not fall back to brute force");
    assert!(last.contradictions > 0, "replan should be driven by audit contradictions");

    // Audit sentinels actually ran and are visible in the accounting.
    assert!(outcome.run.audit_frames > 0, "audit channel should have escalated frames");

    // Recall is fully recovered: every ground-truth frame is reported.
    assert!(
        (outcome.recall - 1.0).abs() < f64::EPSILON,
        "recall should be 1.0 after recovery, got {} ({} truth frames)",
        outcome.recall,
        outcome.truth.len()
    );

    // No false positives either: matched ⊆ truth.
    for id in &outcome.run.matched_frames {
        assert!(outcome.truth.contains(id), "frame {id} reported but not a true match");
    }

    // And the run still pays for itself: brute / (virtual − calibration) ≥ 1,
    // with audit + replan + catch-up all inside `virtual`.
    assert!(
        outcome.net_speedup >= 1.0,
        "net speedup should stay ≥ 1.0 with audit and replan billed, got {:.3}",
        outcome.net_speedup
    );
}

/// Without the monitor the committed plan goes stale: recall collapses on
/// the post-flip regime and no replan events are recorded.
#[test]
fn stale_plan_loses_recall_without_monitor() {
    let outcome = run_drift_scenario(None);
    assert!(outcome.run.replans.is_empty());
    assert_eq!(outcome.run.audit_frames, 0);
    assert!(
        outcome.recall < 1.0,
        "without the monitor the stale plan should miss post-flip frames, got recall {}",
        outcome.recall
    );
}

/// Re-running the identical scenario reproduces the identical outcome —
/// the audit schedule is a pure function of (seed, camera, frame).
#[test]
fn drifted_run_is_reproducible_across_reruns() {
    let a = run_drift_scenario(Some(scenario_drift_config()));
    let b = run_drift_scenario(Some(scenario_drift_config()));
    assert_eq!(a.run.matched_frames, b.run.matched_frames);
    assert_eq!(a.run.replans, b.run.replans);
    assert_eq!(a.run.audit_frames, b.run.audit_frames);
    assert!((a.run.virtual_ms - b.run.virtual_ms).abs() < f64::EPSILON);
}

/// A disabled monitor (`audit_fraction = 0`) attaches nothing: the run is
/// bit-identical to a plain one-shot registration, not merely similar.
#[test]
fn audit_off_is_bit_identical_to_one_shot() {
    let off = run_drift_scenario(Some(DriftConfig::new(0.0)));
    let none = run_drift_scenario(None);
    assert_eq!(off.run.matched_frames, none.run.matched_frames);
    assert_eq!(off.run.frames_detected, none.run.frames_detected);
    assert_eq!(off.run.replans, none.run.replans);
    assert_eq!(off.run.audit_frames, none.run.audit_frames);
    assert!((off.run.virtual_ms - none.run.virtual_ms).abs() < f64::EPSILON);
    assert_eq!(off.run.mode, none.run.mode);
}

/// The scenario's drift-monitored select on a one-camera fleet fed the
/// scenario's stream 30 frames a round: the camera is held until the
/// calibration prefix has arrived, then the fleet plans, audits, replans
/// and answers exactly as the scenario's own plan does, to the bit.
#[test]
fn a_fleet_camera_replans_exactly_as_the_scenario_plan() {
    let expected = run_drift_scenario(Some(scenario_drift_config()));
    let frames = drift_stream(DRIFT_TOTAL_FRAMES, DRIFT_FLIP_AT, DRIFT_STREAM_SEED);
    let filter = RegimeShiftFilter::scenario();
    let oracle = OracleDetector::perfect();
    let config = FleetConfig { queue_capacity: DRIFT_TOTAL_FRAMES, ..FleetConfig::default() };
    let mut fleet = FleetRuntime::new(&oracle, config);
    let camera = fleet.add_camera_frames(&frames);
    let backend = fleet.add_backend(camera, &filter);
    let setup = DriftSetup {
        config: scenario_drift_config(),
        candidate_backends: vec![backend],
        tolerances: CascadeConfig::lattice(),
    };
    fleet.register_select_drifted(camera, "tenant", drift_query(), DRIFT_PREFIX, setup);
    fleet.ingest(30);
    assert_eq!(fleet.poll(), 0, "held until the calibration prefix has arrived");
    for _ in 1..DRIFT_TOTAL_FRAMES / 30 {
        fleet.ingest(30);
        fleet.poll();
    }
    let outcome = fleet.finish().statements.remove(0);
    assert!(!expected.run.replans.is_empty(), "the scenario replans");
    let choice = outcome.calibration.expect("an adaptive select").choice;
    assert_eq!(format!("{choice:?}"), format!("{:?}", expected.calibration.choice));
    assert_eq!(outcome.run.replans, expected.run.replans);
    assert_eq!(outcome.run.audit_frames, expected.run.audit_frames);
    assert_eq!(outcome.run.matched_frames, expected.run.matched_frames);
    assert_eq!(outcome.run.virtual_ms.to_bits(), expected.run.virtual_ms.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On any stream, `audit_fraction = 0` attaches no monitor at all: the
    /// run is bit-identical to a one-shot registration.
    #[test]
    fn audit_off_equals_one_shot_on_any_stream(seed in 0u64..1_000_000) {
        let off = run_drift_scenario_seeded(Some(DriftConfig::new(0.0)), seed);
        let none = run_drift_scenario_seeded(None, seed);
        prop_assert_eq!(&off.run.matched_frames, &none.run.matched_frames);
        prop_assert_eq!(off.run.frames_detected, none.run.frames_detected);
        prop_assert_eq!(off.run.audit_frames, 0u64);
        prop_assert!(off.run.replans.is_empty());
        prop_assert_eq!(off.run.virtual_ms.to_bits(), none.run.virtual_ms.to_bits());
    }

    /// On any stream the monitored run reports no frame brute force would
    /// not: matched frames are always a subset of ground truth (audit
    /// corrections and catch-up repair insert only true frames).
    #[test]
    fn monitored_matches_are_always_true_matches(seed in 0u64..1_000_000) {
        let outcome = run_drift_scenario_seeded(Some(scenario_drift_config()), seed);
        for id in &outcome.run.matched_frames {
            prop_assert!(outcome.truth.contains(id), "frame {} is a false positive", id);
        }
    }
}
