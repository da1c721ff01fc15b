//! Drifted-stream scenario: a stream whose regime flips mid-way, breaking
//! the calibration the adaptive planner committed on the prefix.
//!
//! The stream starts *sparse* (a handful of cars per frame, nothing else).
//! At `flip_at` the regime turns *dense*: the same car-count process plus a
//! crowd of background pedestrians. The [`RegimeShiftFilter`] reports exact
//! per-class counts on sparse frames but under-reports cars once a frame
//! holds `dense_threshold` or more objects — the kind of systematic,
//! density-conditional error a filter trained on the sparse regime exhibits
//! after drift. A strict cascade certified on the sparse prefix therefore
//! rejects *every* true frame of the dense regime, and only the drift
//! monitor's audit channel can notice.
//!
//! [`run_drift_scenario`] executes the query (`count(car) = 3`) through the
//! shared pipeline exactly like the adaptive runtime would — prefix
//! calibration billed to the private ledger, committed plan over the whole
//! stream, optional drift monitor — and reports recall plus the
//! calibration-net speedup over the brute-force floor.

use vmq::detect::{CostLedger, DetectionCache, Detector, OracleDetector};
use vmq::query::ast::CountOp;
use vmq::query::{
    plan_cascade, CalibrationReport, CascadeConfig, DriftConfig, DriftSetup, PipelineConfig, Query, QueryRun,
    SharedStreamPlan,
};
use vmq::video::{BoundingBox, Color, Frame, ObjectClass, SceneObject};

/// Seed of the deterministic scenario stream.
pub const DRIFT_STREAM_SEED: u64 = 0x00D5_11F7;

/// splitmix64 finaliser: the per-frame hash driving the synthetic stream.
fn splitmix(seed: u64, frame_id: u64) -> u64 {
    let mut z = seed ^ frame_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn object(track_id: u64, class: ObjectClass, slot: usize) -> SceneObject {
    let offset = 0.08 + 0.09 * slot as f32;
    SceneObject {
        track_id,
        class,
        color: if class == ObjectClass::Car { Color::Red } else { Color::Blue },
        bbox: BoundingBox::from_center(offset, offset, 0.08, 0.08),
        velocity: (0.0, 0.0),
    }
}

/// Generates the two-regime stream: frames `0..flip_at` are sparse (cars
/// only, 0–3 per frame), frames `flip_at..total` are dense (the same car
/// process plus 4–7 pedestrians). The true-frame criterion — exactly three
/// cars — occurs with the same ~25 % probability in both regimes.
pub fn drift_stream(total: usize, flip_at: usize, seed: u64) -> Vec<Frame> {
    (0..total as u64)
        .map(|frame_id| {
            let h = splitmix(seed, frame_id);
            let cars = (h % 4) as usize;
            let persons = if (frame_id as usize) < flip_at { 0 } else { 4 + ((h >> 8) % 4) as usize };
            let mut objects = Vec::with_capacity(cars + persons);
            for slot in 0..cars {
                objects.push(object(frame_id * 16 + slot as u64, ObjectClass::Car, slot));
            }
            for slot in 0..persons {
                objects.push(object(frame_id * 16 + 8 + slot as u64, ObjectClass::Person, cars + slot));
            }
            Frame { camera_id: 0, frame_id, timestamp: frame_id as f64 / 30.0, objects }
        })
        .collect()
}

/// The scenario query: frames with exactly three cars.
pub fn drift_query() -> Query {
    Query::new("drift").class_count(ObjectClass::Car, CountOp::Exactly, 3)
}

/// A synthetic OD-priced filter whose accuracy is regime-dependent: exact
/// per-class counts while a frame holds fewer than `dense_threshold`
/// objects, but on denser frames the car count is under-reported by
/// `undercount` (clamped at zero). On the sparse regime of
/// [`drift_stream`] it is perfect; on the dense regime every true frame
/// (three cars) is reported as one car, so a strict cascade rejects it.
pub struct RegimeShiftFilter {
    classes: [ObjectClass; 2],
    dense_threshold: usize,
    undercount: u32,
}

impl RegimeShiftFilter {
    /// The scenario configuration: error kicks in at four objects per frame
    /// (every dense frame, no sparse frame) and under-reports cars by two.
    pub fn scenario() -> Self {
        RegimeShiftFilter { classes: [ObjectClass::Car, ObjectClass::Person], dense_threshold: 4, undercount: 2 }
    }
}

impl vmq::filters::FrameFilter for RegimeShiftFilter {
    fn estimate(&self, frame: &Frame) -> vmq::filters::FilterEstimate {
        let count_of = |class: ObjectClass| frame.objects.iter().filter(|o| o.class == class).count();
        let mut cars = count_of(ObjectClass::Car) as i64;
        if frame.objects.len() >= self.dense_threshold {
            cars = (cars - self.undercount as i64).max(0);
        }
        vmq::filters::FilterEstimate {
            classes: self.classes.to_vec(),
            counts: vec![cars as f32, count_of(ObjectClass::Person) as f32],
            grids: vec![vmq::filters::ClassGrid::empty(4), vmq::filters::ClassGrid::empty(4)],
            kind: vmq::filters::FilterKind::Od,
            total_hint: None,
        }
    }

    fn kind(&self) -> vmq::filters::FilterKind {
        vmq::filters::FilterKind::Od
    }

    fn kernel_backend(&self) -> &'static str {
        "none"
    }

    fn grid_size(&self) -> usize {
        4
    }

    fn threshold(&self) -> f32 {
        0.5
    }

    fn classes(&self) -> &[ObjectClass] {
        &self.classes
    }
}

/// Everything one drift-scenario execution produced.
pub struct DriftOutcome {
    /// The pipeline run (virtual time includes calibration and audit work).
    pub run: QueryRun,
    /// The prefix calibration report (the committed one-shot plan).
    pub calibration: CalibrationReport,
    /// Ground-truth matching frame ids over the whole stream.
    pub truth: Vec<u64>,
    /// Recall of the run against ground truth.
    pub recall: f64,
    /// Speedup net of calibration over the brute-force virtual time:
    /// brute / (run − calibration).
    pub net_speedup: f64,
}

/// Length of the scenario stream, in frames.
pub const DRIFT_TOTAL_FRAMES: usize = 360;
/// Frame at which the regime flips from sparse to dense.
pub const DRIFT_FLIP_AT: usize = 180;
/// Calibration-prefix length (entirely inside the sparse regime).
pub const DRIFT_PREFIX: usize = 48;

/// The drift-monitor configuration the scenario runs with: a 15 % audit
/// sentinel over a window that comfortably covers the flip-to-replan gap.
pub fn scenario_drift_config() -> DriftConfig {
    DriftConfig::new(0.15).with_window(128).with_min_truth(12).with_cooldown(64)
}

/// Runs the scenario end to end: calibrate on the (sparse) prefix exactly
/// like the adaptive runtime, execute the committed plan over the whole
/// stream through the shared pipeline — with the drift monitor attached
/// when `drift` is enabled — and score recall and net speedup.
pub fn run_drift_scenario(workers: usize, drift: Option<DriftConfig>) -> DriftOutcome {
    run_drift_scenario_seeded(workers, drift, DRIFT_STREAM_SEED)
}

/// [`run_drift_scenario`] over a caller-chosen stream seed — the property
/// tests sweep seeds to check invariants that must hold on *every* stream,
/// not just the canonical one.
pub fn run_drift_scenario_seeded(workers: usize, drift: Option<DriftConfig>, seed: u64) -> DriftOutcome {
    let frames = drift_stream(DRIFT_TOTAL_FRAMES, DRIFT_FLIP_AT, seed);
    let query = drift_query();
    let filter = RegimeShiftFilter::scenario();
    let backends: Vec<&dyn vmq::filters::FrameFilter> = vec![&filter];
    let oracle = OracleDetector::perfect();
    let ledger = CostLedger::paper();
    let model = ledger.model().clone();

    // One-shot calibration on the prefix (billed to the private ledger).
    let tolerances = CascadeConfig::lattice();
    let report = plan_cascade(
        &query,
        &frames[..DRIFT_PREFIX],
        &backends,
        &tolerances,
        &oracle,
        &ledger,
        PipelineConfig::DEFAULT_BATCH_SIZE,
    );
    let backend = if report.choice.brute_force { None } else { Some(0) };

    let global = CostLedger::paper();
    let cache = DetectionCache::new();
    let mut plan = SharedStreamPlan::new(&oracle, cache, global, PipelineConfig::default()).with_workers(workers);
    let b0 = plan.add_backend(&filter);
    let mode_label = format!("adaptive {}", report.choice.label);
    let calibrate_row = Some(vmq::query::StageMetrics::calibrate(&report));
    match drift.filter(|config| config.enabled()) {
        Some(config) => {
            plan.register_select_drifted(
                query.clone(),
                report.choice.cascade,
                backend.map(|_| b0),
                ledger.clone(),
                mode_label,
                calibrate_row,
                DriftSetup { config, candidate_backends: vec![b0], tolerances },
            );
        }
        None => {
            plan.register_select_with(
                query.clone(),
                report.choice.cascade,
                backend.map(|_| b0),
                ledger.clone(),
                mode_label,
                calibrate_row,
            );
        }
    }
    let run = plan.execute_slice(&frames).remove(0);

    let truth: Vec<u64> = frames.iter().filter(|f| query.matches_ground_truth(f)).map(|f| f.frame_id).collect();
    let found = run.matched_frames.iter().filter(|id| truth.contains(id)).count();
    let recall = if truth.is_empty() { 1.0 } else { found as f64 / truth.len() as f64 };

    let brute_virtual_ms: f64 =
        [vmq::detect::Stage::Decode, oracle.stage()].iter().map(|&s| model.cost_ms(s) * frames.len() as f64).sum();
    let net = run.virtual_ms - report.calibration_ms;
    let net_speedup = if net > 0.0 { brute_virtual_ms / net } else { f64::INFINITY };

    DriftOutcome { run, calibration: report, truth, recall, net_speedup }
}
