//! E-T4 — Table IV: aggregate queries with control variates.
//!
//! Estimates the paper's aggregate queries a1–a5 two ways, side by side:
//!
//! * **one-shot** — the whole test split as a single window
//!   (`AggregateSpec::new(n, n)`), and
//! * **windowed** — the same estimation streamed through the batched
//!   operator pipeline's aggregate mode (`Source → WindowFilter →
//!   AggregateSink`) over hopping windows of half the split advancing by a
//!   quarter, one report per window.
//!
//! Both use the trained OD filter's indicators as (multiple) control
//! variates and repeat each estimation (100 trials by default), comparing
//! the empirical variance of the plain and control-variate estimators — the
//! paper's "Variance Reduction" column.
//!
//! Setting `VMQ_BENCH_JSON=<path>` appends an `"aggregates"` section with
//! the windowed-vs-oneshot rows to the JSON baseline the `table3_queries`
//! bench writes (or creates the file if it does not exist), so
//! `BENCH_pipeline.json` carries the aggregate trajectory alongside the
//! query one.

use vmq_aggregate::{AggregateReport, WindowedAggregator};
use vmq_bench::{aggregate_profile_for, DatasetExperiment, Scale};
use vmq_core::Report;
use vmq_detect::OracleDetector;
use vmq_filters::FrameFilter;
use vmq_query::{AggregateSpec, Query, QueryExecutor};

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct AggRecord {
    query: String,
    dataset: String,
    mode: String,
    window_index: usize,
    window_frames: usize,
    true_fraction: f64,
    plain_variance: f64,
    cv_variance: f64,
    mcv_variance: f64,
    best_reduction: f64,
    correlation: f64,
    detector_frames: usize,
    filter_frames: usize,
}

impl AggRecord {
    fn from_report(
        r: &AggregateReport,
        dataset: &str,
        mode: &str,
        detector_frames: usize,
        filter_frames: usize,
    ) -> Self {
        AggRecord {
            query: r.query.clone(),
            dataset: dataset.to_string(),
            mode: mode.to_string(),
            window_index: r.window_index,
            window_frames: r.window_frames,
            true_fraction: r.true_fraction,
            plain_variance: r.plain_variance,
            cv_variance: r.cv_variance,
            mcv_variance: r.mcv_variance,
            best_reduction: r.best_reduction(),
            correlation: r.mean_correlation,
            detector_frames,
            filter_frames,
        }
    }

    fn to_json(&self) -> String {
        // `best_reduction()` is finite on degenerate zero/zero windows by
        // definition (1.0); the only non-finite case left is a variance-free
        // CV estimator against a varying plain one, which the JSON reports
        // as a saturated ceiling so the baseline never carries a bare null.
        let best = if self.best_reduction.is_finite() {
            format!("{:.3}", self.best_reduction)
        } else {
            format!("{:.3}", 1.0e9)
        };
        format!(
            concat!(
                "    {{\"query\":\"{}\",\"dataset\":\"{}\",\"mode\":\"{}\",\"window_index\":{},",
                "\"window_frames\":{},\"true_fraction\":{:.4},\"plain_variance\":{:.3e},",
                "\"cv_variance\":{:.3e},\"mcv_variance\":{:.3e},\"best_reduction\":{},",
                "\"correlation\":{:.3},\"detector_frames\":{},\"filter_frames\":{}}}"
            ),
            json_escape(&self.query),
            json_escape(&self.dataset),
            json_escape(&self.mode),
            self.window_index,
            self.window_frames,
            self.true_fraction,
            self.plain_variance,
            self.cv_variance,
            self.mcv_variance,
            best,
            self.correlation,
            self.detector_frames,
            self.filter_frames,
        )
    }
}

/// Appends (or creates) the `"aggregates"` section of the JSON baseline
/// without disturbing whatever `table3_queries` wrote. An existing
/// `"aggregates"` section — always the trailing key this function itself
/// wrote — is replaced rather than duplicated, so reruns are idempotent.
fn write_json(path: &str, records: &[AggRecord]) {
    let rows: Vec<String> = records.iter().map(AggRecord::to_json).collect();
    let section = format!("  \"aggregates\": [\n{}\n  ]", rows.join(",\n"));
    let head = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let cut = existing.find("\"aggregates\"").or_else(|| existing.rfind('}')).unwrap_or(0);
            existing[..cut].trim_end().trim_end_matches(',').trim_end().to_string()
        }
        Err(_) => String::new(),
    };
    let text = if head.is_empty() || head == "{" {
        format!("{{\n  \"bench\": \"table4_aggregates\",\n{section}\n}}\n")
    } else {
        format!("{head},\n{section}\n}}\n")
    };
    std::fs::write(path, text).expect("write bench JSON");
    eprintln!("wrote aggregate baseline rows to {path}");
}

fn main() {
    let scale = Scale::from_env();
    // The reported number is a ratio of two empirical variances over the
    // same trials; at 25 trials its sampling noise (~±10 %) swamps the
    // modest reductions a weak-correlation control buys, so the quick scale
    // gets a higher floor. Trials only multiply detector samples — the
    // estimation itself is cheap against the filter's full-window pass.
    let trials = scale.trials().max(75);
    let sample_size = 40;
    let mut report = Report::new("Table IV — aggregate estimation with control variates").header(&[
        "query",
        "dataset",
        "mode",
        "window",
        "true fraction",
        "plain estimate",
        "cv estimate",
        "variance reduction",
        "correlation",
    ]);

    // One density-tuned dataset (and trained filter) per query — the same
    // tuning the Table IV golden harness applies — so the indicator columns
    // actually vary and the variance-reduction comparison measures
    // something. (a3 and a4 share a profile; preparing them separately
    // keeps the per-query pairing simple and the training cost is the same
    // experiment twice at quick scale.)
    let queries = vec![Query::paper_a1(), Query::paper_a2(), Query::paper_a3(), Query::paper_a4(), Query::paper_a5()];
    let cases: Vec<(DatasetExperiment, Query)> = queries
        .into_iter()
        .map(|query| (DatasetExperiment::prepare_ic_od_with_profile(aggregate_profile_for(&query.name), scale), query))
        .collect();

    let oracle = OracleDetector::perfect();
    let mut records = Vec::new();
    for (exp, query) in &cases {
        // The IC filter's CAM activations carry the usable indicator signal
        // at this training budget (the quick-scale OD grids saturate to a
        // constant pass column); 0.35 is the correlation-maximising grid
        // threshold for the trained CAMs, profiled on the a1/a4 validation
        // sweep. The query cascade keeps the recall-oriented 0.2.
        let filter: &dyn FrameFilter = &exp.filters.ic;
        let indicator_threshold = 0.35;
        let frames = exp.dataset.test();
        let reduction_str = |r: f64| if r.is_finite() { format!("{r:.1}x") } else { "inf".to_string() };

        let backends: Vec<&dyn FrameFilter> = vec![filter];
        let estimate = |spec: AggregateSpec| {
            let mut agg = WindowedAggregator::new(query.clone(), sample_size, trials, 404);
            let run = QueryExecutor::new(query.clone()).run_aggregate(frames, spec, &backends, &oracle, &mut agg);
            (agg.into_reports(), run)
        };

        // One-shot: the whole test split as a single window.
        let n = frames.len();
        let (mut oneshot, _) = estimate(AggregateSpec::new(n, n).with_indicator_threshold(indicator_threshold));
        let oneshot = oneshot.remove(0);
        report.row(&[
            query.name.clone(),
            exp.name().to_string(),
            "oneshot".to_string(),
            format!("{}", oneshot.window_frames),
            format!("{:.3}", oneshot.true_fraction),
            format!("{:.3}", oneshot.plain_mean),
            format!("{:.3}", oneshot.cv_mean),
            reduction_str(oneshot.best_reduction()),
            format!("{:.2}", oneshot.mean_correlation),
        ]);
        records.push(AggRecord::from_report(
            &oneshot,
            exp.name(),
            "oneshot",
            sample_size.min(frames.len()) * trials,
            frames.len(),
        ));

        // Windowed: the same estimation streamed through the pipeline over
        // hopping windows (half the split, advancing by a quarter).
        let size = (frames.len() / 2).max(2);
        let advance = (frames.len() / 4).max(1);
        let (windowed, run) = estimate(AggregateSpec::new(size, advance).with_indicator_threshold(indicator_threshold));
        let windows = windowed.len().max(1);
        for window in &windowed {
            report.row(&[
                query.name.clone(),
                exp.name().to_string(),
                "windowed".to_string(),
                format!(
                    "w{} [{}..{})",
                    window.window_index,
                    window.window_start,
                    window.window_start + window.window_frames
                ),
                format!("{:.3}", window.true_fraction),
                format!("{:.3}", window.plain_mean),
                format!("{:.3}", window.cv_mean),
                reduction_str(window.best_reduction()),
                format!("{:.2}", window.mean_correlation),
            ]);
            records.push(AggRecord::from_report(
                window,
                exp.name(),
                "windowed",
                run.frames_detected / windows,
                frames.len(),
            ));
        }
    }
    // A zero correlation on a window whose truth actually varies means the
    // filter's indicator column was constant — the control variate is inert
    // and the row validates nothing. Surface it loudly instead of letting
    // flat `best_reduction=1.000` rows masquerade as a healthy baseline.
    for r in &records {
        if r.true_fraction <= 0.0 || r.true_fraction >= 1.0 {
            eprintln!(
                "warning: {}/{} window {} has degenerate ground truth (true fraction {:.3}) — nothing to estimate; tune the dataset profile",
                r.query, r.mode, r.window_index, r.true_fraction
            );
        } else if r.correlation == 0.0 {
            eprintln!(
                "warning: {}/{} window {} has a constant CV indicator column (correlation 0.000) — the control variates are inert on this window",
                r.query, r.mode, r.window_index
            );
        }
    }

    report.note(&format!("{trials} trials of {sample_size} sampled frames each; control means computed by running the cheap filter over the whole window"));
    report.note("windowed rows stream through the batched pipeline (Source → WindowFilter → AggregateSink): filter cost is per stream frame, detector cost per sampled frame per window");
    report.note("paper shape: order-of-magnitude variance reductions at a ~1% increase in per-sample cost (filter ms on top of Mask R-CNN's 200 ms)");
    println!("{}", report.render());

    if let Ok(path) = std::env::var("VMQ_BENCH_JSON") {
        write_json(&path, &records);
    }
}
