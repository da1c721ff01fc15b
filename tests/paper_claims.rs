//! Paper-claims sheet: every number PAPER.md states about the evaluation,
//! measured on this reproduction and checked against an explicit tolerance.
//!
//! One fixture per dataset profile is trained once, at one fixed size (see
//! `common/experiment.rs`): the three Table II profiles with IC, OD and
//! OD-COF, plus the density-tuned a2, a3/a4 and a5 profiles with IC and OD
//! (a1 runs on the stock Jackson fixture). The sheet covers
//!
//! * **Table II** — objects per frame (mean, std) and class shares of each
//!   simulated dataset against the paper's statistics;
//! * **Fig. 7** — total-count exact and ±1 accuracy of OD-COF, IC-CF and
//!   OD-CF (paper: ~90 % exact, ~99 % within ±1);
//! * **Fig. 11** — the same two accuracies per class for IC-CCF and OD-CCF;
//! * **Fig. 15** — CLF F1 rising from Manhattan distance 0 to 2 (never
//!   falling, and by at least five F1 points overall), inside the paper's
//!   0.6–0.9 band;
//! * **Table III** — q1–q7 on the trained IC/OD filters: the most selective
//!   fixed combination that stays lossless on the test split (how the paper
//!   picks its rows) and the adaptive plan (calibration billed), each with
//!   recall and virtual speedup over brute force; selective queries ≫
//!   unselective ones; a filter's billed virtual price is ≈ 1 % of the
//!   detector's. The stock Jackson and DeTRAC splits hold no q5–q7 frame,
//!   so q5 runs on the a2 fixture and q6/q7 on the a3/a4 one (as
//!   `table3_plans.rs` sparsifies DeTRAC). Each row's note records the
//!   query's true frames on its split, and a row reads `ok` only when there
//!   is at least one: with none, recall is 1 by definition and a filter
//!   that rejects every frame looks fastest;
//! * **Table IV** — a1–a5 with the trained IC filter's indicators as the
//!   control (seed 404, 40 samples, 100 trials, grid threshold 0.35), one
//!   shot over the test split and over hopping windows of half the split
//!   advancing by a quarter.
//!
//! Every row of `tests/golden/paper_claims.txt` reads `claim paper measured
//! tolerance verdict [note]`. The verdict is `ok` when the measured value
//! is inside the tolerance and `deviation` otherwise; a deviation passes
//! only if DESIGN.md's "Faithfulness substitutions" section names its claim
//! id (or a `prefix*` pattern covering it) next to the reason. The file is
//! compared byte for byte, under both kernel dispatch modes: training runs
//! one scalar accumulation order whatever the backend, and every printed
//! inference-derived value is rounded far above the ULP differences the
//! SIMD kernels may introduce.
//!
//! Regenerate with `VMQ_UPDATE_GOLDEN=1 cargo test --release --test
//! paper_claims -- --include-ignored`.

#[path = "common/experiment.rs"]
mod experiment;
#[path = "common/profiles.rs"]
mod profiles;

use experiment::DatasetExperiment;
use profiles::aggregate_profile;
use std::fmt::Write as _;
use vmq::aggregate::WindowedAggregator;
use vmq::detect::OracleDetector;
use vmq::filters::{ClfMetrics, CountMetrics, FilterEstimate, FrameFilter, TrainedFilters};
use vmq::query::{AggregateSpec, CascadeConfig, Query, QueryExecutor, QueryRun};
use vmq::video::{DatasetProfile, DatasetStats, Frame};

/// Committed sheet location (relative to the workspace root).
const GOLDEN_PATH: &str = "tests/golden/paper_claims.txt";
/// Where deviations are explained.
const DESIGN_PATH: &str = "DESIGN.md";

/// Fig. 7/11: the paper's "~90 % exact"; ten points below still reads as
/// "about 90 %".
const EXACT: (&str, f64) = ("~0.90", 0.80);
/// Fig. 7/11: the paper's "~99 % within ±1".
const WITHIN_ONE: (&str, f64) = ("~0.99", 0.95);
/// Fig. 15: the paper's F1 band, widened by 0.05 at both ends.
const F1_BAND: (f64, f64, f64) = (0.6, 0.9, 0.05);
/// Fig. 15: the least F1 gain from MD 0 to MD 2 that reads as a rise; a CLF
/// stuck at or near zero does not localise, it does not rise.
const F1_RISE: f32 = 0.05;
/// Table III: "up to ~100×"; an order-of-magnitude claim, so a factor of two
/// either way still agrees.
const SPEEDUP_MAX: (f64, f64) = (100.0, 2.0);
/// Table III: "selective ≫ unselective" read as an order of magnitude
/// between the best and the worst fixed-combination speedup.
const SELECTIVE_RATIO: f64 = 10.0;
/// Table III: a filter costs ≈ 1 % of the detector (1.5–1.9 ms of 200 ms).
const FILTER_PRICE_BAND: (f64, f64) = (0.005, 0.02);
/// Table IV: "variance reduced by large factors", read as at least 2×.
const REDUCTION_FLOOR: f64 = 2.0;
/// Table IV estimation settings.
const SAMPLE: usize = 40;
const TRIALS: usize = 100;
const AGGREGATE_SEED: u64 = 404;
const INDICATOR_THRESHOLD: f32 = 0.35;

/// One row of the sheet.
struct Claim {
    id: String,
    paper: String,
    measured: String,
    tolerance: String,
    ok: bool,
    note: String,
}

#[derive(Default)]
struct Sheet {
    claims: Vec<Claim>,
}

impl Sheet {
    fn push(&mut self, id: String, paper: &str, measured: String, tolerance: String, ok: bool, note: String) {
        self.claims.push(Claim { id, paper: paper.to_string(), measured, tolerance, ok, note });
    }

    /// A fraction that must reach `floor`.
    fn at_least(&mut self, id: String, (paper, floor): (&str, f64), measured: f64) {
        self.push(id, paper, format!("{measured:.3}"), format!(">= {floor:.2}"), measured >= floor, String::new());
    }

    /// A statistic within a relative tolerance of the paper's value.
    fn within_relative(&mut self, id: String, paper: f64, measured: f64, tolerance: f64) {
        let ok = (measured - paper).abs() <= tolerance * paper;
        let tolerance = format!("+-{:.0}%", tolerance * 100.0);
        self.push(id, &format!("{paper:.2}"), format!("{measured:.2}"), tolerance, ok, String::new());
    }

    fn render(&self) -> String {
        let mut out = String::from(
            "# Paper-claims sheet — PAPER.md's evaluation claims measured on this reproduction.\n\
             # A `deviation` is explained in DESIGN.md, \"Faithfulness substitutions\".\n\
             # Regenerate with: VMQ_UPDATE_GOLDEN=1 cargo test --release --test paper_claims -- --include-ignored\n",
        );
        writeln!(out, "# {:<36} {:<14} {:<20} {:<12} {:<9} note", "claim", "paper", "measured", "tolerance", "verdict")
            .unwrap();
        for c in &self.claims {
            let verdict = if c.ok { "ok" } else { "deviation" };
            let line = format!(
                "{:<38} {:<14} {:<20} {:<12} {:<9} {}",
                c.id, c.paper, c.measured, c.tolerance, verdict, c.note
            );
            writeln!(out, "{}", line.trim_end()).unwrap();
        }
        out
    }
}

/// Lower-case dataset key for claim ids.
fn key(exp: &DatasetExperiment) -> String {
    exp.name().to_ascii_lowercase()
}

fn table2(sheet: &mut Sheet, exp: &DatasetExperiment) {
    let ds = &exp.dataset;
    let frames: Vec<Frame> = ds.train().iter().chain(ds.validation()).chain(ds.test()).cloned().collect();
    let stats = DatasetStats::compute(&frames);
    let p = &exp.profile;
    let k = key(exp);
    // The scene process targets the profile's moments; 15 % absorbs the
    // autocorrelation of a ~860-frame sample.
    sheet.within_relative(format!("table2.{k}.objects_mean"), p.mean_objects as f64, stats.mean_objects as f64, 0.15);
    sheet.within_relative(format!("table2.{k}.objects_std"), p.std_objects as f64, stats.std_objects as f64, 0.15);
    for mix in &p.classes {
        let share = stats.class_shares.get(&mix.class).copied().unwrap_or(0.0) as f64;
        let ok = (share - mix.fraction as f64).abs() <= 0.05;
        let id = format!("table2.{k}.share.{}", mix.class.name());
        sheet.push(id, &format!("{:.2}", mix.fraction), format!("{share:.2}"), "+-0.05".into(), ok, String::new());
    }
}

/// Figs. 7, 11 and 15 on one stock fixture.
fn filter_accuracy(sheet: &mut Sheet, exp: &DatasetExperiment) {
    let test = exp.dataset.test();
    let labels = &exp.test_labels;
    let k = key(exp);
    let ic = TrainedFilters::evaluate(&exp.filters.ic, test);
    let od = TrainedFilters::evaluate(&exp.filters.od, test);
    let cof = TrainedFilters::evaluate(&exp.filters.cof, test);

    for (name, estimates) in [("od-cof", &cof), ("ic-cf", &ic), ("od-cf", &od)] {
        let m = CountMetrics::total_count(estimates, labels);
        sheet.at_least(format!("fig7.{k}.{name}.exact"), EXACT, m.exact as f64);
        sheet.at_least(format!("fig7.{k}.{name}.within1"), WITHIN_ONE, m.within_one as f64);
    }
    let by_filter: [(&str, &Vec<FilterEstimate>); 2] = [("ic", &ic), ("od", &od)];
    for &class in &exp.config.classes {
        let c = class.name();
        for (name, estimates) in by_filter {
            let m = CountMetrics::class_count(estimates, labels, class);
            sheet.at_least(format!("fig11.{k}.{c}.{name}-ccf.exact"), EXACT, m.exact as f64);
            sheet.at_least(format!("fig11.{k}.{c}.{name}-ccf.within1"), WITHIN_ONE, m.within_one as f64);
        }
    }
    let (lo, hi, slack) = F1_BAND;
    for &class in &exp.config.classes {
        let c = class.name();
        for (name, estimates) in by_filter {
            let f1: Vec<f32> = (0..=2)
                .map(|md| ClfMetrics::class_location(estimates, labels, class, exp.config.threshold, md).f1)
                .collect();
            let measured = format!("{:.3}/{:.3}/{:.3}", f1[0], f1[1], f1[2]);
            let rises = f1[0] <= f1[1] && f1[1] <= f1[2] && f1[2] - f1[0] >= F1_RISE;
            let id = format!("fig15.rise.{k}.{c}.{name}-clf");
            let tolerance = format!("rise>={F1_RISE:.2}");
            sheet.push(id, "MD0<MD1<MD2", measured, tolerance, rises, String::new());
            let (min, max) = (f1[0].min(f1[2]) as f64, f1[0].max(f1[2]) as f64);
            let inside = min >= lo - slack && max <= hi + slack;
            let id = format!("fig15.band.{k}.{c}.{name}-clf");
            let measured = format!("{min:.3}..{max:.3}");
            sheet.push(id, &format!("{lo}..{hi}"), measured, format!("+-{slack:.2}"), inside, String::new());
        }
    }
}

/// The most selective fixed combination on the trained IC/OD filters: every
/// backend × tolerance-lattice point runs over the test split, and the
/// lossless run with the fewest detector frames wins (cheaper virtual bill
/// on a tie). Without a lossless point, the best-recall run is reported.
fn most_selective_lossless(exp: &DatasetExperiment, query: &Query, oracle: &OracleDetector) -> (QueryRun, f32) {
    let frames = exp.dataset.test();
    let mut best: Option<(QueryRun, f32)> = None;
    for filter in [&exp.filters.ic as &dyn FrameFilter, &exp.filters.od] {
        for config in CascadeConfig::lattice() {
            let exec = QueryExecutor::new(query.clone());
            let run = exec.run_filtered(frames, filter, oracle, config);
            let recall = exec.accuracy(&run, frames).recall;
            let better = best.as_ref().is_none_or(|(b, best_recall)| {
                recall > *best_recall
                    || (recall == *best_recall
                        && (run.frames_detected, run.virtual_ms) < (b.frames_detected, b.virtual_ms))
            });
            if better {
                best = Some((run, recall));
            }
        }
    }
    best.expect("the lattice is not empty")
}

/// The recall and virtual-speedup rows of one Table III plan on a split
/// holding `truth` true frames. Both read `ok` only when `truth > 0`.
fn plan_rows(sheet: &mut Sheet, id: &str, truth: usize, recall: f32, speedup: f64, note: String) {
    let evidence = truth > 0;
    let recall_ok = evidence && recall >= 1.0;
    sheet.push(format!("{id}.recall"), "1.000", format!("{recall:.3}"), "= 1".into(), recall_ok, note);
    let speedup_ok = evidence && speedup > 1.0;
    sheet.push(format!("{id}.speedup"), "> 1x", format!("{speedup:.2}x"), "> 1x".into(), speedup_ok, String::new());
}

/// Virtual milliseconds per input frame that `operator`'s stage row billed.
fn billed_per_frame(run: &QueryRun, operator: &str) -> f64 {
    let row = run.stage_metrics.iter().find(|m| m.operator == operator).unwrap_or_else(|| panic!("no {operator} row"));
    row.virtual_ms / row.frames_in as f64
}

/// Table III on `(fixture label, fixture, query)` cases.
fn table3(sheet: &mut Sheet, cases: &[(&str, &DatasetExperiment, Query)]) {
    let oracle = OracleDetector::perfect();
    let mut fixed_speedups = Vec::new();
    for (label, exp, query) in cases {
        let frames = exp.dataset.test();
        let q = &query.name;
        let exec = QueryExecutor::new(query.clone());
        let truth = exec.ground_truth(frames).len();
        let brute = QueryExecutor::new(query.clone()).run_brute_force(frames, &oracle);

        let (fixed, recall) = most_selective_lossless(exp, query, &oracle);
        let speedup = brute.virtual_ms / fixed.virtual_ms;
        if truth > 0 {
            fixed_speedups.push((q.clone(), speedup));
        }
        let note = format!("{label} true={truth} {} pass_rate={:.3}", fixed.mode, fixed.filter_pass_rate());
        plan_rows(sheet, &format!("table3.{q}.fixed"), truth, recall, speedup, note);

        // The adaptive planner over both backends and the full lattice,
        // calibrated on an eighth of the split; its bill includes that.
        let backends: Vec<&dyn FrameFilter> = vec![&exp.filters.ic, &exp.filters.od];
        let prefix = frames.len() / 8;
        let (adaptive, _) = exec.run_adaptive(frames, prefix, &backends, &CascadeConfig::lattice(), &oracle);
        let recall = exec.accuracy(&adaptive, frames).recall;
        let speedup = brute.virtual_ms / adaptive.virtual_ms;
        let note = format!("{label} true={truth} {} prefix={prefix}", adaptive.mode);
        plan_rows(sheet, &format!("table3.{q}.adaptive"), truth, recall, speedup, note);
    }

    // The spread only counts queries with true frames on their split.
    let by_speedup = |a: &&(String, f64), b: &&(String, f64)| a.1.total_cmp(&b.1);
    let best = fixed_speedups.iter().max_by(by_speedup).expect("a query with true frames");
    let worst = fixed_speedups.iter().min_by(by_speedup).expect("a query with true frames");
    let (paper, factor) = SPEEDUP_MAX;
    sheet.push(
        "table3.speedup_max".into(),
        &format!("~{paper:.0}x"),
        format!("{:.2}x", best.1),
        format!("x/ {factor:.0}"),
        best.1 >= paper / factor && best.1 <= paper * factor,
        best.0.clone(),
    );
    let ratio = best.1 / worst.1;
    sheet.push(
        "table3.selective_vs_unselective".into(),
        ">> 1",
        format!("{ratio:.1}"),
        format!(">= {SELECTIVE_RATIO:.0}"),
        ratio >= SELECTIVE_RATIO,
        format!("{} {:.2}x / {} {:.2}x", best.0, best.1, worst.0, worst.1),
    );

    // A filter's price next to the detector's, as the ledger billed them on
    // the first query: cascade-filter ms per screened frame over detect ms
    // per detected frame.
    let (_, exp, query) = &cases[0];
    let frames = exp.dataset.test();
    let brute = QueryExecutor::new(query.clone()).run_brute_force(frames, &oracle);
    let detector = billed_per_frame(&brute, "detect");
    for filter in [&exp.filters.ic as &dyn FrameFilter, &exp.filters.od] {
        let run = QueryExecutor::new(query.clone()).run_filtered(frames, filter, &oracle, CascadeConfig::strict());
        let price = billed_per_frame(&run, "cascade-filter");
        let share = price / detector;
        let (lo, hi) = FILTER_PRICE_BAND;
        sheet.push(
            format!("table3.filter_price.{}", filter.kind().name().to_ascii_lowercase()),
            "~1%",
            format!("{:.2}%", share * 100.0),
            format!("{:.1}..{:.0}%", lo * 100.0, hi * 100.0),
            (lo..=hi).contains(&share),
            format!("billed {price:.1} of {detector:.1} ms/frame"),
        );
    }
}

fn table4(sheet: &mut Sheet, cases: &[(&DatasetExperiment, Query)]) {
    let oracle = OracleDetector::perfect();
    for (exp, query) in cases {
        let frames = exp.dataset.test();
        let backends: Vec<&dyn FrameFilter> = vec![&exp.filters.ic];
        let estimate = |size: usize, advance: usize| {
            let mut agg = WindowedAggregator::new(query.clone(), SAMPLE, TRIALS, AGGREGATE_SEED);
            let spec = AggregateSpec::new(size, advance).with_indicator_threshold(INDICATOR_THRESHOLD);
            QueryExecutor::new(query.clone()).run_aggregate(frames, spec, &backends, &oracle, &mut agg);
            agg.into_reports()
        };
        let n = frames.len();
        let oneshot = estimate(n, n).into_iter().map(|r| ("oneshot".to_string(), r));
        let windowed = estimate(n / 2, n / 4).into_iter().map(|r| (format!("w{}", r.window_index), r));
        for (window, report) in oneshot.chain(windowed) {
            let reduction = report.best_reduction();
            sheet.push(
                format!("table4.{}.{window}.reduction", query.name),
                ">> 1x",
                format!("{reduction:.2}x"),
                format!(">= {REDUCTION_FLOOR:.0}x"),
                reduction >= REDUCTION_FLOOR,
                format!("{} rho={:.2} true={:.3}", exp.name(), report.mean_correlation, report.true_fraction),
            );
        }
    }
}

/// The six fixtures (Coral, Jackson, DeTRAC, a2, a3/a4, a5), trained
/// concurrently on the worker pool: each is a pure function of its profile.
fn fixtures() -> [DatasetExperiment; 6] {
    let specs = [
        (DatasetProfile::coral(), true),
        (DatasetProfile::jackson(), true),
        (DatasetProfile::detrac(), true),
        (aggregate_profile("a2"), false),
        (aggregate_profile("a3"), false),
        (aggregate_profile("a5"), false),
    ];
    let mut slots: [Option<DatasetExperiment>; 6] = Default::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    vmq::exec::scope(workers, |scope| {
        for (slot, (profile, with_cof)) in slots.iter_mut().zip(specs) {
            scope.spawn(move || *slot = Some(DatasetExperiment::prepare(profile, with_cof)));
        }
    });
    slots.map(|slot| slot.expect("every fixture is trained"))
}

fn measure() -> Sheet {
    let [coral, jackson, detrac, a2, a3_a4, a5] = fixtures();

    let mut sheet = Sheet::default();
    for exp in [&coral, &jackson, &detrac] {
        table2(&mut sheet, exp);
    }
    for exp in [&coral, &jackson, &detrac] {
        filter_accuracy(&mut sheet, exp);
    }
    table3(
        &mut sheet,
        &[
            ("coral", &coral, Query::paper_q1()),
            ("coral", &coral, Query::paper_q2()),
            ("jackson", &jackson, Query::paper_q3()),
            ("jackson", &jackson, Query::paper_q4()),
            ("a2", &a2, Query::paper_q5()),
            ("a3/a4", &a3_a4, Query::paper_q6()),
            ("a3/a4", &a3_a4, Query::paper_q7()),
        ],
    );
    table4(
        &mut sheet,
        &[
            (&jackson, Query::paper_a1()),
            (&a2, Query::paper_a2()),
            (&a3_a4, Query::paper_a3()),
            (&a3_a4, Query::paper_a4()),
            (&a5, Query::paper_a5()),
        ],
    );
    sheet
}

/// The backticked spans of DESIGN.md's "Faithfulness substitutions" section:
/// claim ids and `prefix*` patterns of the explained deviations.
fn listed_deviations() -> Vec<String> {
    let design = std::fs::read_to_string(DESIGN_PATH).unwrap_or_else(|e| panic!("cannot read {DESIGN_PATH}: {e}"));
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("Faithfulness substitutions"))
        .expect("DESIGN.md has a \"Faithfulness substitutions\" section");
    section.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

fn explained(id: &str, listed: &[String]) -> bool {
    listed.iter().any(|p| p == id || p.strip_suffix('*').is_some_and(|prefix| id.starts_with(prefix)))
}

#[test]
#[ignore = "trains fifteen experiment-size filters: minutes in a debug build; CI runs it in release, both dispatch modes"]
fn paper_claims_hold_or_are_explained_deviations() {
    let sheet = measure();
    let text = sheet.render();
    if std::env::var("VMQ_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden sheet");
        eprintln!("updated {GOLDEN_PATH}");
    }

    let listed = listed_deviations();
    let unexplained: Vec<&str> =
        sheet.claims.iter().filter(|c| !c.ok && !explained(&c.id, &listed)).map(|c| c.id.as_str()).collect();
    assert!(
        unexplained.is_empty(),
        "deviations DESIGN.md's \"Faithfulness substitutions\" section does not explain: {unexplained:?}"
    );

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH} (regenerate it as the module docs say): {e}"));
    assert_eq!(text, golden, "the paper-claims sheet drifted; if intentional, regenerate it as the module docs say");
}
