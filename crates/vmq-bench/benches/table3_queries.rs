//! E-T3 — Table III: end-to-end query execution times.
//!
//! Runs the paper's queries q1–q7 on their respective datasets with the
//! trained OD filters in front of the oracle detector, all through the
//! batched operator pipeline (`Source → CascadeFilter → Detect →
//! PredicateEval → Sink`). Exactly as the paper does ("we present the most
//! selective filter combinations that yield 100 % accuracy"), for every
//! query the harness tries cascade configurations from the most selective to
//! the most tolerant and reports the most selective one that loses no true
//! frames (falling back to the best-recall configuration when none is
//! lossless), then compares against brute-force evaluation.
//!
//! Each query is additionally run through the **adaptive cascade planner**
//! (trained IC and OD backends × the full tolerance lattice, calibrated on a
//! stream prefix), reporting the chosen plan and its total cost —
//! calibration included — side by side with the fixed-preset search, so the
//! cost of adaptivity is visible rather than hidden.

use vmq_bench::{DatasetExperiment, Scale};
use vmq_core::Report;
use vmq_detect::{CostLedger, DetectionCache, OracleDetector, Stage};
use vmq_filters::FrameFilter;
use vmq_query::{
    CascadeConfig, PipelineConfig, Query, QueryAccuracy, QueryExecutor, QueryRun, SharedStreamPlan, SpeedupReport,
};
use vmq_video::DatasetKind;

/// Candidate cascade configurations, ordered from most to least selective.
fn candidate_configs() -> Vec<CascadeConfig> {
    vec![
        CascadeConfig { count_tolerance: 0, location_tolerance: 0 },
        CascadeConfig { count_tolerance: 0, location_tolerance: 1 },
        CascadeConfig { count_tolerance: 1, location_tolerance: 1 },
        CascadeConfig { count_tolerance: 1, location_tolerance: 2 },
        CascadeConfig { count_tolerance: 2, location_tolerance: 2 },
    ]
}

/// Filter-stage worker threads: all available cores (results are
/// bit-identical for any count, so this is purely a wall-clock knob).
fn filter_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn batched_executor(query: &Query) -> QueryExecutor {
    QueryExecutor::new(query.clone())
        .with_batch_size(PipelineConfig::DEFAULT_BATCH_SIZE)
        .with_filter_workers(filter_workers())
}

fn best_run(exp: &DatasetExperiment, query: &Query, oracle: &OracleDetector) -> (QueryRun, QueryAccuracy) {
    let frames = exp.dataset.test();
    let filter: &dyn FrameFilter = &exp.filters.od;
    let mut best: Option<(QueryRun, QueryAccuracy)> = None;
    for config in candidate_configs() {
        let exec = batched_executor(query);
        let run = exec.run_filtered(frames, filter, oracle, config);
        let accuracy = exec.accuracy(&run, frames);
        let better = match &best {
            None => true,
            Some((best_run, best_acc)) => {
                // prefer lossless runs; among lossless runs prefer the most
                // selective (fewest detector invocations)
                (accuracy.recall > best_acc.recall + 1e-6)
                    || (accuracy.recall >= best_acc.recall - 1e-6 && run.frames_detected < best_run.frames_detected)
            }
        };
        if better {
            let lossless = accuracy.recall >= 1.0 - 1e-6;
            best = Some((run, accuracy));
            if lossless {
                break; // candidates are ordered most→least selective
            }
        }
    }
    best.expect("at least one configuration evaluated")
}

/// Calibration prefix length used by the adaptive runs: an eighth of the
/// stream, clamped to a sensible range.
fn adaptive_prefix(frames: usize) -> usize {
    (frames / 8).clamp(8, 64)
}

/// The shared multi-query comparison: all seven standing queries over *one*
/// camera stream, isolated (seven passes, seven detector bills) vs shared
/// (one pass through [`SharedStreamPlan`], detector deduplicated across the
/// escalation union).
struct MultiQueryRecord {
    isolated_detector_invocations: u64,
    shared_detector_invocations: u64,
    detector_reduction: f64,
    isolated_virtual_ms: f64,
    shared_virtual_ms: f64,
    virtual_speedup: f64,
    isolated_wall_ms: f64,
    shared_wall_ms: f64,
    wall_speedup: f64,
}

/// Runs q1–q7 as standing queries on the Jackson stream, isolated vs shared
/// (the trained OD filter backend serves all seven in the shared pass).
fn multi_query_comparison(exp: &DatasetExperiment, queries: &[Query], oracle: &OracleDetector) -> MultiQueryRecord {
    let frames = exp.dataset.test();
    let filter: &dyn FrameFilter = &exp.filters.od;
    let cascade = CascadeConfig::tolerant();

    let isolated_start = std::time::Instant::now();
    let mut isolated_virtual_ms = 0.0;
    let mut isolated_detector_invocations = 0u64;
    for query in queries {
        let exec = batched_executor(query);
        let run = exec.run_filtered(frames, filter, oracle, cascade);
        isolated_virtual_ms += run.virtual_ms;
        isolated_detector_invocations += run.frames_detected as u64;
    }
    let isolated_wall_ms = isolated_start.elapsed().as_secs_f64() * 1000.0;

    let shared_start = std::time::Instant::now();
    let global = CostLedger::paper();
    let mut plan = SharedStreamPlan::new(
        oracle,
        DetectionCache::new(),
        global.clone(),
        PipelineConfig::with_batch_size(PipelineConfig::DEFAULT_BATCH_SIZE),
    )
    .with_workers(filter_workers());
    let backend = plan.add_backend(filter);
    for query in queries {
        plan.register_select(query.clone(), cascade, Some(backend), CostLedger::paper());
    }
    let _runs = plan.execute_slice(frames);
    let shared_wall_ms = shared_start.elapsed().as_secs_f64() * 1000.0;
    let shared_virtual_ms = global.total_ms();
    let shared_detector_invocations = global.invocations(Stage::MaskRcnn);

    MultiQueryRecord {
        isolated_detector_invocations,
        shared_detector_invocations,
        detector_reduction: isolated_detector_invocations as f64 / shared_detector_invocations.max(1) as f64,
        isolated_virtual_ms,
        shared_virtual_ms,
        virtual_speedup: isolated_virtual_ms / shared_virtual_ms.max(1e-9),
        isolated_wall_ms,
        shared_wall_ms,
        wall_speedup: isolated_wall_ms / shared_wall_ms.max(1e-9),
    }
}

fn main() {
    let scale = Scale::from_env();
    let mut report = Report::new("Table III — query execution: filter cascade vs brute force").header(&[
        "query",
        "dataset",
        "filter combination",
        "filtered (virtual s)",
        "brute force (virtual s)",
        "speedup",
        "accuracy (recall)",
        "f1",
        "pass rate",
        "adaptive plan",
        "adaptive (virtual s)",
        "adaptive speedup",
        "adaptive recall",
    ]);

    let coral = DatasetExperiment::prepare_ic_od(DatasetKind::Coral, scale);
    let jackson = DatasetExperiment::prepare_ic_od(DatasetKind::Jackson, scale);
    let detrac = DatasetExperiment::prepare_ic_od(DatasetKind::Detrac, scale);

    let cases: Vec<(&DatasetExperiment, Query)> = vec![
        (&coral, Query::paper_q1()),
        (&coral, Query::paper_q2()),
        (&jackson, Query::paper_q3()),
        (&jackson, Query::paper_q4()),
        (&jackson, Query::paper_q5()),
        (&detrac, Query::paper_q6()),
        (&detrac, Query::paper_q7()),
    ];

    let oracle = OracleDetector::perfect();
    for (exp, query) in cases {
        let frames = exp.dataset.test();
        let brute_exec = batched_executor(&query);
        let brute = brute_exec.run_brute_force(frames, &oracle);
        let (run, accuracy) = best_run(exp, &query, &oracle);
        let speedup = SpeedupReport::new(brute.virtual_ms, run.virtual_ms);

        // Adaptive run: trained IC and OD backends × the full tolerance
        // lattice, calibrated on a stream prefix; total cost includes the
        // calibration bill.
        let backends: Vec<&dyn FrameFilter> = vec![&exp.filters.ic, &exp.filters.od];
        let adaptive_exec = batched_executor(&query);
        let (adaptive_run, _) = adaptive_exec.run_adaptive(
            frames,
            adaptive_prefix(frames.len()),
            &backends,
            &CascadeConfig::lattice(),
            &oracle,
        );
        let adaptive_accuracy = adaptive_exec.accuracy(&adaptive_run, frames);
        let adaptive_speedup = SpeedupReport::new(brute.virtual_ms, adaptive_run.virtual_ms);

        report.row(&[
            query.name.clone(),
            exp.name().to_string(),
            run.mode.clone(),
            format!("{:.1}", run.virtual_seconds()),
            format!("{:.1}", brute.virtual_seconds()),
            format!("{:.1}x", speedup.speedup),
            format!("{:.1}%", accuracy.recall * 100.0),
            format!("{:.3}", accuracy.f1),
            format!("{:.1}%", run.filter_pass_rate() * 100.0),
            adaptive_run.mode.clone(),
            format!("{:.1}", adaptive_run.virtual_seconds()),
            format!("{:.1}x", adaptive_speedup.speedup),
            format!("{:.1}%", adaptive_accuracy.recall * 100.0),
        ]);
    }
    // Shared multi-query pass: the monitoring scenario — all seven standing
    // queries watching the Jackson stream through one SharedStreamPlan.
    let all_queries: Vec<Query> = vec![
        Query::paper_q1(),
        Query::paper_q2(),
        Query::paper_q3(),
        Query::paper_q4(),
        Query::paper_q5(),
        Query::paper_q6(),
        Query::paper_q7(),
    ];
    let multi = multi_query_comparison(&jackson, &all_queries, &oracle);
    report.note(&format!(
        "multi-query (7 standing queries, one stream): detector {} -> {} invocations ({:.2}x reduction), virtual {:.1}s -> {:.1}s ({:.2}x), wall {:.0}ms -> {:.0}ms ({:.2}x)",
        multi.isolated_detector_invocations,
        multi.shared_detector_invocations,
        multi.detector_reduction,
        multi.isolated_virtual_ms / 1000.0,
        multi.shared_virtual_ms / 1000.0,
        multi.virtual_speedup,
        multi.isolated_wall_ms,
        multi.shared_wall_ms,
        multi.wall_speedup,
    ));
    report.note("for each query the most selective filter combination that keeps 100% recall is chosen, as in the paper; otherwise the best-recall combination is shown");
    report.note("the adaptive columns run the calibration-driven planner (IC+OD backends x full CCF/CLF lattice); adaptive virtual time includes the calibration prefix cost, so the speedup is what a caller would actually observe");
    report.note("times use the paper's virtual cost model (Mask R-CNN 200 ms, OD filter 1.9 ms per frame); speedup is governed by the cascade's selectivity");
    report.note(
        "all runs execute on the batched operator pipeline (Source → CascadeFilter → Detect → PredicateEval → Sink)",
    );
    println!("{}", report.render());
}
