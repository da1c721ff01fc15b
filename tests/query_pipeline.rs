//! Integration tests of the query pipeline across crates: cascade safety,
//! selectivity and per-query behaviour of the paper's q1–q7.

use vmq::detect::OracleDetector;
use vmq::filters::{CalibratedFilter, CalibrationProfile};
use vmq::query::{CascadeConfig, Query, QueryExecutor};
use vmq::video::{Dataset, DatasetKind, DatasetProfile};

fn dataset_for(query_name: &str) -> Dataset {
    let kind = match query_name {
        "q1" | "q2" | "a5" => DatasetKind::Coral,
        "q6" | "q7" | "a3" | "a4" => DatasetKind::Detrac,
        _ => DatasetKind::Jackson,
    };
    Dataset::generate(&DatasetProfile::for_kind(kind), 30, 150, 77)
}

/// Every paper query, evaluated with a perfect filter and a tolerant cascade,
/// loses no true frames (100 % recall), mirroring Table III's accuracy column.
#[test]
fn all_paper_queries_keep_full_recall_with_perfect_filter() {
    let queries = [
        Query::paper_q1(),
        Query::paper_q2(),
        Query::paper_q3(),
        Query::paper_q4(),
        Query::paper_q5(),
        Query::paper_q6(),
        Query::paper_q7(),
    ];
    let oracle = OracleDetector::perfect();
    for query in queries {
        let ds = dataset_for(&query.name);
        let filter = CalibratedFilter::new(ds.profile().class_list(), 16, CalibrationProfile::perfect(), 3);
        let exec = QueryExecutor::new(query.clone());
        let run = exec.run_filtered(ds.test(), &filter, &oracle, CascadeConfig::tolerant());
        let accuracy = exec.accuracy(&run, ds.test());
        assert_eq!(accuracy.recall, 1.0, "query {} lost true frames: {accuracy:?}", query.name);
        assert_eq!(accuracy.precision, 1.0, "query {} reported false frames: {accuracy:?}", query.name);
    }
}

/// A noisier (realistic) filter still keeps high recall with the loose
/// cascade while filtering out a meaningful share of frames for selective
/// queries.
#[test]
fn noisy_filter_trades_little_recall_for_selectivity() {
    // q6 on the dense Detrac stream: "exactly one car and exactly one bus"
    // is highly selective (most frames carry many cars), so even a ±1 count
    // tolerance prunes aggressively while a realistic count error of ±0.45
    // keeps nearly every true frame.
    let ds = Dataset::generate(&DatasetProfile::detrac(), 30, 400, 13);
    let filter = CalibratedFilter::new(ds.profile().class_list(), 16, CalibrationProfile::od_like(), 5);
    let oracle = OracleDetector::perfect();
    let exec = QueryExecutor::new(Query::paper_q6());
    let run = exec.run_filtered(ds.test(), &filter, &oracle, CascadeConfig::tolerant());
    let accuracy = exec.accuracy(&run, ds.test());
    assert!(accuracy.recall >= 0.8, "recall {accuracy:?}");
    assert!(
        run.frames_passed_filter < run.frames_total,
        "the cascade should drop at least some frames for a selective query"
    );
}

/// Tighter cascades are never less selective than looser ones, and brute
/// force is an upper bound on detector work.
#[test]
fn selectivity_is_monotone_in_tolerance() {
    let ds = Dataset::generate(&DatasetProfile::jackson(), 30, 250, 29);
    let filter = CalibratedFilter::new(ds.profile().class_list(), 16, CalibrationProfile::od_like(), 11);
    let oracle = OracleDetector::perfect();
    let query = Query::paper_q3();

    let strict = QueryExecutor::new(query.clone()).run_filtered(ds.test(), &filter, &oracle, CascadeConfig::strict());
    let tolerant =
        QueryExecutor::new(query.clone()).run_filtered(ds.test(), &filter, &oracle, CascadeConfig::tolerant());
    let loose = QueryExecutor::new(query.clone()).run_filtered(ds.test(), &filter, &oracle, CascadeConfig::loose());
    let brute = QueryExecutor::new(query).run_brute_force(ds.test(), &oracle);

    assert!(strict.frames_passed_filter <= tolerant.frames_passed_filter);
    assert!(tolerant.frames_passed_filter <= loose.frames_passed_filter);
    assert!(loose.frames_detected <= brute.frames_detected);
    assert!(strict.virtual_ms <= tolerant.virtual_ms + 1e-9);
}
