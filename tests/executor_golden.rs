//! Golden executor harness: pins every non-wall field of the [`QueryRun`]s
//! `QueryExecutor` produces, row by row.
//!
//! On a seeded Jackson stream the harness runs q1–q7 × {brute force,
//! `strict`, `tolerant`, adaptive over `CascadeConfig::lattice()`} and the
//! aggregates a1/a2 through `run_aggregate` with a [`WindowedAggregator`]
//! (frame-count windows, per-window adaptive backend choice over two
//! candidates, and a time-based window), plus one-window aggregates — a1/a2
//! on the same stream and a3 on a sparsified DeTRAC stream — whose window
//! spans the whole stream (the one-shot estimate), and renders
//!
//! * of every run: `mode`, `matched_frames`, `frames_total`,
//!   `frames_passed_filter`, `frames_detected` and `virtual_ms` by bit
//!   pattern;
//! * of every stage row: `operator`, `stage`, `frames_in`, `frames_out`,
//!   `virtual_ms` by bit pattern, `workers`, `kernel_backend`;
//! * of every window report: its position and every estimate by bit pattern.
//!
//! Wall-clock columns are the only fields left out. The snapshot
//! (`tests/golden/executor_runs.txt`) was generated from the
//! single-statement operator chain that `QueryExecutor`'s plan of one
//! replaced, so it pins the one executor to that chain's output row for row.
//!
//! Regenerate with `VMQ_UPDATE_GOLDEN=1 cargo test --test executor_golden`
//! after an intentional change to a run's reported fields.

use std::fmt::Write as _;
use vmq::aggregate::WindowedAggregator;
use vmq::detect::OracleDetector;
use vmq::filters::{CalibratedFilter, CalibrationProfile, FrameFilter};
use vmq::query::{AggregateSpec, CascadeConfig, Query, QueryExecutor, QueryRun};
use vmq::video::{Dataset, DatasetProfile, Frame};

/// Workload seed: the dataset and the filter noise are fully determined by it.
const SEED: u64 = 41;
/// Test-split length.
const TEST_FRAMES: usize = 320;
/// Calibration prefix of the adaptive runs.
const PREFIX_FRAMES: usize = 48;
/// Committed snapshot location (relative to the workspace root).
const GOLDEN_PATH: &str = "tests/golden/executor_runs.txt";

/// A fresh OD-like candidate backend (the calibrated filter's noise stream
/// is sequential, so every run gets an identically seeded instance).
fn od_filter(profile: &DatasetProfile) -> CalibratedFilter {
    CalibratedFilter::new(profile.class_list(), 16, CalibrationProfile::od_like(), SEED ^ 0xAB)
}

/// A fresh, cheaper IC-like candidate backend.
fn ic_filter(profile: &DatasetProfile) -> CalibratedFilter {
    CalibratedFilter::new(profile.class_list(), 16, CalibrationProfile::ic_like(), SEED ^ 0xCD)
}

fn render_run(out: &mut String, case: &str, run: &QueryRun) {
    writeln!(
        out,
        "{case}: query={} mode={:?} total={} passed={} detected={} virtual_ms={:016x} audit={} replans={} matched={:?}",
        run.query,
        run.mode,
        run.frames_total,
        run.frames_passed_filter,
        run.frames_detected,
        run.virtual_ms.to_bits(),
        run.audit_frames,
        run.replans.len(),
        run.matched_frames,
    )
    .unwrap();
    for row in &run.stage_metrics {
        writeln!(
            out,
            "  {:<15} stage={:?} in={} out={} virtual_ms={:016x} workers={} kernel={:?}",
            row.operator,
            row.stage,
            row.frames_in,
            row.frames_out,
            row.virtual_ms.to_bits(),
            row.workers,
            row.kernel_backend,
        )
        .unwrap();
    }
}

fn render_windows(out: &mut String, agg: &WindowedAggregator) {
    for report in agg.reports() {
        writeln!(
            out,
            "  window {} start={} frames={} backend={} trials={} sample={} true={:016x} plain={:016x}/{:016x} cv={:016x}/{:016x} mcv={:016x}/{:016x} corr={:016x} per_sample_ms={:016x}",
            report.window_index,
            report.window_start,
            report.window_frames,
            report.backend,
            report.trials,
            report.sample_size,
            report.true_fraction.to_bits(),
            report.plain_mean.to_bits(),
            report.plain_variance.to_bits(),
            report.cv_mean.to_bits(),
            report.cv_variance.to_bits(),
            report.mcv_mean.to_bits(),
            report.mcv_variance.to_bits(),
            report.mean_correlation.to_bits(),
            report.time_per_sample_ms.to_bits(),
        )
        .unwrap();
    }
    for choice in agg.selections() {
        let correlations: Vec<u64> = choice.correlations.iter().map(|c| c.to_bits()).collect();
        writeln!(out, "  selected {} ({}) correlations={correlations:016x?}", choice.backend_index, choice.backend)
            .unwrap();
    }
}

fn rendered() -> String {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 20, TEST_FRAMES, SEED);
    let frames: &[Frame] = ds.test();
    let oracle = OracleDetector::perfect();
    let mut out = String::from(
        "# Golden executor runs — every non-wall field of QueryExecutor's runs on a seeded Jackson stream.\n\
         # Regenerate with: VMQ_UPDATE_GOLDEN=1 cargo test --test executor_golden\n",
    );

    let selects = [
        Query::paper_q1(),
        Query::paper_q2(),
        Query::paper_q3(),
        Query::paper_q4(),
        Query::paper_q5(),
        Query::paper_q6(),
        Query::paper_q7(),
    ];
    for query in &selects {
        let name = &query.name;
        let brute = QueryExecutor::new(query.clone()).run_brute_force(frames, &oracle);
        render_run(&mut out, &format!("{name} brute"), &brute);
        for (preset_name, preset) in [("strict", CascadeConfig::strict()), ("tolerant", CascadeConfig::tolerant())] {
            let run = QueryExecutor::new(query.clone()).run_filtered(frames, &od_filter(&profile), &oracle, preset);
            render_run(&mut out, &format!("{name} {preset_name}"), &run);
        }
        let (od, ic) = (od_filter(&profile), ic_filter(&profile));
        let backends: Vec<&dyn FrameFilter> = vec![&od, &ic];
        let (run, report) = QueryExecutor::new(query.clone()).run_adaptive(
            frames,
            PREFIX_FRAMES,
            &backends,
            &CascadeConfig::lattice(),
            &oracle,
        );
        render_run(&mut out, &format!("{name} adaptive"), &run);
        writeln!(
            out,
            "  planned {:?} prefix={} calibration_ms={:016x}",
            report.choice.label,
            report.prefix_frames,
            report.calibration_ms.to_bits()
        )
        .unwrap();
    }

    // Aggregates: frame-count hopping windows over one backend (a non-default
    // batch size, so windows straddle batches), the per-window adaptive
    // backend choice over two candidates, and a time-based window.
    for (query, seed) in [(Query::paper_a1(), 7u64), (Query::paper_a2(), 8)] {
        let name = query.name.clone();
        let filter = od_filter(&profile);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let mut agg = WindowedAggregator::new(query.clone(), 12, 6, seed);
        let run = QueryExecutor::new(query.clone()).with_batch_size(7).run_aggregate(
            frames,
            AggregateSpec::new(100, 50),
            &backends,
            &oracle,
            &mut agg,
        );
        render_run(&mut out, &format!("{name} window 100/50"), &run);
        render_windows(&mut out, &agg);

        let (od, ic) = (od_filter(&profile), ic_filter(&profile));
        let backends: Vec<&dyn FrameFilter> = vec![&ic, &od];
        let mut agg = WindowedAggregator::new(query.clone(), 12, 6, seed).with_adaptive_backend(20);
        let run = QueryExecutor::new(query.clone()).run_aggregate(
            frames,
            AggregateSpec::new(120, 120).with_indicator_threshold(0.6),
            &backends,
            &oracle,
            &mut agg,
        );
        render_run(&mut out, &format!("{name} adaptive-backend window 120/120"), &run);
        render_windows(&mut out, &agg);

        let filter = od_filter(&profile);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let mut agg = WindowedAggregator::new(query.clone(), 12, 6, seed);
        let run = QueryExecutor::new(query).run_aggregate(
            frames,
            AggregateSpec::hopping_seconds(3.0, 2.0),
            &backends,
            &oracle,
            &mut agg,
        );
        render_run(&mut out, &format!("{name} window 3s/2s"), &run);
        render_windows(&mut out, &agg);
    }

    // One-window aggregates — the one-shot estimate: a window spanning the
    // whole stream. a1/a2 on the Jackson stream, a3 on the sparsified DeTRAC
    // profile the Table IV golden uses (at the paper's density "exactly
    // three objects" never holds at this scale).
    for (query, seed) in [(Query::paper_a1(), 7u64), (Query::paper_a2(), 8)] {
        render_one_window(&mut out, frames, query, &od_filter(&profile), 24, 20, seed);
    }
    let mut detrac = DatasetProfile::detrac();
    detrac.mean_objects = 3.0;
    detrac.std_objects = 1.2;
    detrac.classes[0].fraction = 0.58;
    detrac.classes[1].fraction = 0.38;
    detrac.classes[2].fraction = 0.04;
    detrac.count_reversion = 0.5;
    let sparse = Dataset::generate(&detrac, 32, 400, 31);
    let filter = CalibratedFilter::new(detrac.class_list(), 16, CalibrationProfile::od_like(), 9);
    render_one_window(&mut out, sparse.test(), Query::paper_a3(), &filter, 60, 80, 13);
    out
}

/// Renders `query` estimated over one window spanning all of `frames`
/// (`AggregateSpec::new(n, n)`). These rows were generated through — and
/// asserted bit-identical to — the legacy one-shot `AggregateEstimator::run`
/// before it was deleted.
fn render_one_window(
    out: &mut String,
    frames: &[Frame],
    query: Query,
    filter: &dyn FrameFilter,
    sample_size: usize,
    trials: usize,
    seed: u64,
) {
    let n = frames.len();
    let mut agg = WindowedAggregator::new(query.clone(), sample_size, trials, seed);
    let run = QueryExecutor::new(query.clone()).run_aggregate(
        frames,
        AggregateSpec::new(n, n),
        &[filter],
        &OracleDetector::perfect(),
        &mut agg,
    );
    render_run(out, &format!("{} one-window {n}/{n}", query.name), &run);
    render_windows(out, &agg);
}

#[test]
fn executor_runs_match_golden_snapshot_row_for_row() {
    let text = rendered();
    if std::env::var("VMQ_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden snapshot");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH} (run with VMQ_UPDATE_GOLDEN=1 to create it): {e}"));
    assert_eq!(
        text, golden,
        "QueryExecutor's runs drifted from the golden snapshot; if intentional, regenerate with VMQ_UPDATE_GOLDEN=1"
    );
}
