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

use vmq_aggregate::WindowedAggregator;
use vmq_bench::{aggregate_profile_for, DatasetExperiment, Scale};
use vmq_core::Report;
use vmq_detect::OracleDetector;
use vmq_filters::FrameFilter;
use vmq_query::{AggregateSpec, Query, QueryExecutor};

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
            QueryExecutor::new(query.clone()).run_aggregate(frames, spec, &backends, &oracle, &mut agg);
            agg.into_reports()
        };

        // One-shot: the whole test split as a single window.
        let n = frames.len();
        let mut oneshot = estimate(AggregateSpec::new(n, n).with_indicator_threshold(indicator_threshold));
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

        // Windowed: the same estimation streamed through the pipeline over
        // hopping windows (half the split, advancing by a quarter).
        let size = (frames.len() / 2).max(2);
        let advance = (frames.len() / 4).max(1);
        let windowed = estimate(AggregateSpec::new(size, advance).with_indicator_threshold(indicator_threshold));
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
        }
    }
    report.note(&format!("{trials} trials of {sample_size} sampled frames each; control means computed by running the cheap filter over the whole window"));
    report.note("windowed rows stream through the batched pipeline (Source → WindowFilter → AggregateSink): filter cost is per stream frame, detector cost per sampled frame per window");
    report.note("paper shape: order-of-magnitude variance reductions at a ~1% increase in per-sample cost (filter ms on top of Mask R-CNN's 200 ms)");
    println!("{}", report.render());
}
