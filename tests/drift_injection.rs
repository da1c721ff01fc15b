//! Drift-injection suite: a stream whose regime flips mid-way invalidates
//! the calibration committed on the prefix. The drift monitor's audit
//! channel must notice the contradiction, re-plan to a still-certifiable
//! cascade, repair the missed window frames, and keep the whole exercise —
//! audit sentinels, replanning, catch-up — billed to the query's ledger so
//! the net speedup claim stays honest. Audit-off runs must be bit-identical
//! to a plain one-shot registration.

#[path = "common/drift.rs"]
mod drift;

use drift::{run_drift_scenario, run_drift_scenario_seeded, scenario_drift_config, DRIFT_FLIP_AT};
use proptest::prelude::*;
use vmq::query::DriftConfig;

/// With the monitor attached, the regime flip is detected, the plan is
/// swapped mid-stream (to a cascade, not brute force), recall is perfect,
/// and the run still beats brute force net of calibration/audit/replan.
#[test]
fn monitor_recovers_recall_after_regime_flip() {
    let outcome = run_drift_scenario(1, Some(scenario_drift_config()));

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
    let outcome = run_drift_scenario(1, None);
    assert!(outcome.run.replans.is_empty());
    assert_eq!(outcome.run.audit_frames, 0);
    assert!(
        outcome.recall < 1.0,
        "without the monitor the stale plan should miss post-flip frames, got recall {}",
        outcome.recall
    );
}

/// The monitored run is bit-reproducible: worker count must not change the
/// matched set, the replan schedule, the audit count or the virtual bill.
#[test]
fn drifted_run_is_bit_identical_across_worker_counts() {
    let base = run_drift_scenario(1, Some(scenario_drift_config()));
    for workers in [2, 4] {
        let other = run_drift_scenario(workers, Some(scenario_drift_config()));
        assert_eq!(base.run.matched_frames, other.run.matched_frames, "workers={workers}");
        assert_eq!(base.run.replans, other.run.replans, "workers={workers}");
        assert_eq!(base.run.audit_frames, other.run.audit_frames, "workers={workers}");
        assert_eq!(base.run.frames_detected, other.run.frames_detected, "workers={workers}");
        assert!((base.run.virtual_ms - other.run.virtual_ms).abs() < 1e-9, "workers={workers}");
    }
}

/// Re-running the identical scenario reproduces the identical outcome —
/// the audit schedule is a pure function of (seed, camera, frame).
#[test]
fn drifted_run_is_reproducible_across_reruns() {
    let a = run_drift_scenario(2, Some(scenario_drift_config()));
    let b = run_drift_scenario(2, Some(scenario_drift_config()));
    assert_eq!(a.run.matched_frames, b.run.matched_frames);
    assert_eq!(a.run.replans, b.run.replans);
    assert_eq!(a.run.audit_frames, b.run.audit_frames);
    assert!((a.run.virtual_ms - b.run.virtual_ms).abs() < f64::EPSILON);
}

/// A disabled monitor (`audit_fraction = 0`) attaches nothing: the run is
/// bit-identical to a plain one-shot registration, not merely similar.
#[test]
fn audit_off_is_bit_identical_to_one_shot() {
    let off = run_drift_scenario(1, Some(DriftConfig::new(0.0)));
    let none = run_drift_scenario(1, None);
    assert_eq!(off.run.matched_frames, none.run.matched_frames);
    assert_eq!(off.run.frames_detected, none.run.frames_detected);
    assert_eq!(off.run.replans, none.run.replans);
    assert_eq!(off.run.audit_frames, none.run.audit_frames);
    assert!((off.run.virtual_ms - none.run.virtual_ms).abs() < f64::EPSILON);
    assert_eq!(off.run.mode, none.run.mode);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On any stream and worker count, `audit_fraction = 0` attaches no
    /// monitor at all: the run is bit-identical to a one-shot registration.
    #[test]
    fn audit_off_equals_one_shot_on_any_stream(seed in 0u64..1_000_000, workers in 1usize..=4) {
        let off = run_drift_scenario_seeded(workers, Some(DriftConfig::new(0.0)), seed);
        let none = run_drift_scenario_seeded(workers, None, seed);
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
        let outcome = run_drift_scenario_seeded(1, Some(scenario_drift_config()), seed);
        for id in &outcome.run.matched_frames {
            prop_assert!(outcome.truth.contains(id), "frame {} is a false positive", id);
        }
    }
}
