//! Aggregate monitoring with control variates (Section III of the paper).
//!
//! Estimates how often a car appears in the lower-right quadrant of a traffic
//! camera (the paper's aggregate query a1), comparing the plain sampling
//! estimator against the single- and multiple-control-variate estimators.
//! The experiment repeats the estimation many times to show the variance
//! reduction the control variates deliver.
//!
//! ```bash
//! cargo run --release --example aggregate_monitoring
//! ```

use vmq::aggregate::HoppingWindow;
use vmq::engine::{EngineConfig, FilterChoice, RuntimeQuery, VmqEngine};
use vmq::filters::CalibrationProfile;
use vmq::query::Query;
use vmq::video::DatasetProfile;

fn main() {
    let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(60, 600));
    let choice = FilterChoice::Calibrated(CalibrationProfile::od_like());
    let split = engine.dataset().test().len();

    // Three standing aggregates over one stream pass: a1 and a2 each over a
    // single window spanning the whole split (a one-shot estimate), and a1
    // again as a *stream* of hopping windows — the parsed
    // `WINDOW HOPPING (SIZE 200, ADVANCE BY 100)` clause — emitting one
    // report per window.
    let mut runtime = engine.runtime();
    for query in [Query::paper_a1(), Query::paper_a2()] {
        runtime.register(RuntimeQuery::Aggregate {
            query,
            choice,
            window: HoppingWindow::tumbling(split),
            sample_size: 40, // frames evaluated by the expensive detector per trial
            trials: 100,     // independent trials
        });
    }
    runtime.register(RuntimeQuery::Aggregate {
        query: Query::paper_a1(),
        choice,
        window: HoppingWindow::new(200, 100),
        sample_size: 40,
        trials: 100,
    });
    let shared = runtime.run();

    for (outcome, label) in
        shared.outcomes[..2].iter().zip(["a1: car in the lower-right quadrant", "a2: car left of a person"])
    {
        println!("== {label} ==");
        let report = &outcome.as_aggregate().expect("an aggregate").reports[0];
        println!("  window:                {} frames", report.window_frames);
        println!("  true fraction:         {:.3}", report.true_fraction);
        println!("  plain estimator:       mean {:.3}, variance {:.6}", report.plain_mean, report.plain_variance);
        println!("  single control variate: mean {:.3}, variance {:.6}", report.cv_mean, report.cv_variance);
        println!("  multiple control variates: mean {:.3}, variance {:.6}", report.mcv_mean, report.mcv_variance);
        let best = report.best_reduction();
        if best.is_finite() {
            println!("  variance reduction:    {best:.1}x");
        } else {
            println!("  variance reduction:    infinite (CV estimator had zero variance)");
        }
        println!("  cost per sampled frame: {:.1} ms (filter + detector)", report.time_per_sample_ms);
        println!("  filter correlation:     {:.2}", report.mean_correlation);
        println!();
    }
    println!("== a1 over hopping windows (SIZE 200, ADVANCE BY 100) ==");
    let outcome = shared.outcomes[2].as_aggregate().expect("an aggregate");
    for report in &outcome.reports {
        println!(
            "  window {} [{}..{}): true={:.3} plain_var={:.2e} cv_var={:.2e} reduction={:.1}x",
            report.window_index,
            report.window_start,
            report.window_start + report.window_frames,
            report.true_fraction,
            report.plain_variance,
            report.cv_variance,
            report.best_reduction()
        );
    }
    println!("{}", outcome.stage_report().render());
    println!();
    println!("The control variate is the cheap filter's verdict on each sampled frame; its mean over the whole window");
    println!("is known almost for free (the filter costs ~2 ms/frame vs 200 ms/frame for the detector), which is what");
    println!("turns the correlation into a variance reduction, exactly as in Table IV of the paper.");
}
