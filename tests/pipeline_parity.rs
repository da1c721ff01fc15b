//! Parity tests of the batched operator pipeline against the eager,
//! frame-at-a-time execution semantics the original executor implemented
//! (one decode + filter charge per frame, detector charge per surviving
//! frame, answers in stream order), and tests of the shared plan's
//! bookkeeping that no statement answer shows: recall is monotone in the
//! cascade tolerances, and the detection cache, the global ledger and the
//! attribution split record exactly the work a pass shares. (Every driver is also pinned against the naive
//! statement reference in `statement_differential.rs`.)

#[path = "common/family.rs"]
mod family;

use family::overlapping_family;
use proptest::prelude::*;
use std::collections::BTreeSet;
use vmq::aggregate::{FrameSampler, WindowedAggregator};
use vmq::detect::{CostLedger, DetectionCache, Detector, Stage};
use vmq::engine::{EngineConfig, FilterChoice, RuntimeQuery, VmqEngine};
use vmq::filters::{CalibratedFilter, CalibrationProfile, FilterConfig, FilterKind, FrameFilter, OdFilter};
use vmq::query::plan::FilterCascade;
use vmq::query::planner::PlanChoice;
use vmq::query::{
    AggregateSpec, CascadeConfig, PipelineConfig, Query, QueryAccuracy, QueryExecutor, QueryRun, SharedStreamPlan,
};
use vmq::video::{Dataset, DatasetKind, DatasetProfile, Frame};

/// The eager reference semantics: the per-frame loop the seed's
/// `run_filtered` / `run_brute_force` implemented, charging every stage one
/// frame at a time. Returns `(matched_frames, frames_detected, virtual_ms)`.
fn eager_reference(
    query: &Query,
    frames: &[Frame],
    filter: Option<&dyn FrameFilter>,
    detector: &dyn Detector,
    cascade: Option<CascadeConfig>,
) -> (Vec<u64>, usize, f64) {
    let ledger = CostLedger::paper();
    let cascade = cascade.map(|config| FilterCascade::new(query.clone(), config));
    let mut matched = Vec::new();
    let mut detected = 0usize;
    for frame in frames {
        ledger.charge(Stage::Decode, 1);
        if let (Some(filter), Some(cascade)) = (filter, cascade.as_ref()) {
            ledger.charge(filter.kind().stage(), 1);
            let estimate = filter.estimate(frame);
            if !cascade.passes(&estimate, filter.threshold()) {
                continue;
            }
        }
        ledger.charge(detector.stage(), 1);
        detected += 1;
        if query.matches_detections(&detector.detect(frame)) {
            matched.push(frame.frame_id);
        }
    }
    (matched, detected, ledger.total_ms())
}

fn scenario(kind: DatasetKind) -> (Dataset, Query) {
    // The same dataset-to-query pairing end_to_end.rs exercises.
    let query = match kind {
        DatasetKind::Coral => Query::paper_q1(),
        DatasetKind::Jackson => Query::paper_q3(),
        DatasetKind::Detrac => Query::paper_q6(),
    };
    (Dataset::generate(&DatasetProfile::for_kind(kind), 40, 120, 17), query)
}

/// Filtered execution through the operator pipeline is byte-identical to the
/// eager per-frame semantics — matched frame ids, detector invocations and
/// the virtual-time total — on the end-to-end scenarios, for every batch
/// size, with both a perfect and a noisy (stochastic) filter.
#[test]
fn filtered_pipeline_matches_eager_semantics_exactly() {
    let oracle = vmq::detect::OracleDetector::perfect();
    for kind in [DatasetKind::Coral, DatasetKind::Jackson, DatasetKind::Detrac] {
        let (ds, query) = scenario(kind);
        let classes = ds.profile().class_list();
        for profile in [CalibrationProfile::perfect(), CalibrationProfile::od_like()] {
            // The calibrated filter draws from a sequential RNG, so reference
            // and pipeline runs each get their own identically seeded copy.
            let fresh = || CalibratedFilter::new(classes.clone(), 16, profile, 99);
            let reference_filter = fresh();
            let (matched, detected, virtual_ms) =
                eager_reference(&query, ds.test(), Some(&reference_filter), &oracle, Some(CascadeConfig::strict()));
            for batch_size in [1usize, 7, 32, 1024] {
                let filter = fresh();
                let exec = QueryExecutor::new(query.clone()).with_batch_size(batch_size);
                let run = exec.run_filtered(ds.test(), &filter, &oracle, CascadeConfig::strict());
                assert_eq!(run.matched_frames, matched, "{kind:?} batch {batch_size}");
                assert_eq!(run.frames_detected, detected, "{kind:?} batch {batch_size}");
                assert_eq!(
                    run.virtual_ms.to_bits(),
                    virtual_ms.to_bits(),
                    "{kind:?} batch {batch_size}: {} vs {}",
                    run.virtual_ms,
                    virtual_ms
                );
            }
        }
    }
}

/// Brute-force execution through the pipeline matches the eager per-frame
/// semantics exactly as well.
#[test]
fn brute_force_pipeline_matches_eager_semantics_exactly() {
    let oracle = vmq::detect::OracleDetector::perfect();
    for kind in [DatasetKind::Coral, DatasetKind::Jackson, DatasetKind::Detrac] {
        let (ds, query) = scenario(kind);
        let (matched, detected, virtual_ms) = eager_reference(&query, ds.test(), None, &oracle, None);
        for batch_size in [1usize, 13, 64] {
            let exec = QueryExecutor::new(query.clone()).with_batch_size(batch_size);
            let run = exec.run_brute_force(ds.test(), &oracle);
            assert_eq!(run.matched_frames, matched);
            assert_eq!(run.frames_detected, detected);
            assert_eq!(run.virtual_ms.to_bits(), virtual_ms.to_bits());
        }
    }
}

/// Same seed ⇒ identical `PlanChoice`, whatever the pipeline batch size.
/// The planner profiles candidates through `estimate_batch` in
/// pipeline-sized chunks, and chunking is covered by the batch parity
/// guarantee, so the plan must not depend on the batch size — even for the
/// stochastic calibrated filter (identically seeded copies per run).
#[test]
fn plan_choice_is_identical_across_batch_sizes() {
    let oracle = vmq::detect::OracleDetector::perfect();
    for kind in [DatasetKind::Coral, DatasetKind::Jackson, DatasetKind::Detrac] {
        let (ds, query) = scenario(kind);
        let classes = ds.profile().class_list();
        let choices: Vec<PlanChoice> = [1usize, 7, 64]
            .iter()
            .map(|&batch_size| {
                let od = CalibratedFilter::new(classes.clone(), 16, CalibrationProfile::od_like(), 31);
                let ic = CalibratedFilter::new(classes.clone(), 16, CalibrationProfile::ic_like(), 32);
                let backends: Vec<&dyn FrameFilter> = vec![&od, &ic];
                let exec = QueryExecutor::new(query.clone()).with_batch_size(batch_size);
                let (_run, report) = exec.run_adaptive(ds.test(), 40, &backends, &CascadeConfig::lattice(), &oracle);
                report.choice
            })
            .collect();
        for choice in &choices[1..] {
            assert_eq!(choice.label, choices[0].label, "{kind:?}");
            assert_eq!(choice.cascade, choices[0].cascade, "{kind:?}");
            assert_eq!(choice.backend_index, choices[0].backend_index, "{kind:?}");
            assert_eq!(choice.expected_cost.to_bits(), choices[0].expected_cost.to_bits(), "{kind:?}");
            assert_eq!(choice.expected_selectivity.to_bits(), choices[0].expected_selectivity.to_bits(), "{kind:?}");
        }
    }
}

/// Adaptive execution is the chosen fixed pipeline plus a calibration bill:
/// its matched frame ids are byte-identical to running the chosen
/// `(backend, cascade)` through the fixed pipeline, and its virtual time is
/// exactly the fixed run's plus the reported calibration cost.
/// (Deterministic filters — the perfect calibrated backend — make the
/// comparison exact regardless of the extra calibration-time RNG draws.)
#[test]
fn adaptive_execution_matches_fixed_pipeline_with_chosen_config() {
    let oracle = vmq::detect::OracleDetector::perfect();
    for kind in [DatasetKind::Coral, DatasetKind::Jackson, DatasetKind::Detrac] {
        let (ds, query) = scenario(kind);
        let classes = ds.profile().class_list();
        let fresh = |fk: FilterKind| {
            CalibratedFilter::new(classes.clone(), 16, CalibrationProfile::perfect().emulating(fk), 77)
        };

        let od = fresh(FilterKind::Od);
        let ic = fresh(FilterKind::Ic);
        let backends: Vec<&dyn FrameFilter> = vec![&od, &ic];
        let exec = QueryExecutor::new(query.clone());
        let (adaptive, report) = exec.run_adaptive(ds.test(), 32, &backends, &CascadeConfig::lattice(), &oracle);

        // The planner may pick the brute-force floor; the adaptive execution
        // must then match a plain brute-force run plus the calibration bill.
        let fixed_exec = QueryExecutor::new(query.clone());
        let fixed = if report.choice.brute_force {
            fixed_exec.run_brute_force(ds.test(), &oracle)
        } else {
            let chosen_filter = fresh(if report.choice.backend == "IC" { FilterKind::Ic } else { FilterKind::Od });
            fixed_exec.run_filtered(ds.test(), &chosen_filter, &oracle, report.choice.cascade)
        };

        assert_eq!(adaptive.matched_frames, fixed.matched_frames, "{kind:?}");
        assert_eq!(adaptive.frames_detected, fixed.frames_detected, "{kind:?}");
        assert_eq!(adaptive.frames_passed_filter, fixed.frames_passed_filter, "{kind:?}");
        assert!(
            (fixed.virtual_ms + report.calibration_ms - adaptive.virtual_ms).abs() < 1e-6,
            "{kind:?}: adaptive must cost exactly fixed + calibration: {} + {} vs {}",
            fixed.virtual_ms,
            report.calibration_ms,
            adaptive.virtual_ms
        );
        assert!(adaptive.mode.starts_with("adaptive "), "{}", adaptive.mode);
        assert_eq!(adaptive.stage_metrics[0].operator, "calibrate");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recall is monotone in the cascade tolerances: loosening the count or
    /// location tolerance never loses a frame the tighter cascade kept, so
    /// recall (and the pass count) can only grow. Identically seeded filter
    /// copies guarantee both runs see the same stochastic estimates.
    #[test]
    fn recall_is_monotone_in_cascade_tolerances(
        seed in 0u64..300,
        query_idx in 0usize..3,
        count_tol in 0u32..3,
        location_tol in 0usize..3,
        count_bump in 0u32..3,
        location_bump in 0usize..3,
    ) {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 80, seed);
        let query = [Query::paper_q3(), Query::paper_q4(), Query::paper_q5()][query_idx].clone();
        let oracle = vmq::detect::OracleDetector::perfect();
        let fresh = || CalibratedFilter::new(profile.class_list(), 16, CalibrationProfile::od_like(), seed ^ 0xF1);

        let tight = CascadeConfig { count_tolerance: count_tol, location_tolerance: location_tol };
        let loose = CascadeConfig {
            count_tolerance: count_tol + count_bump,
            location_tolerance: location_tol + location_bump,
        };

        let exec = QueryExecutor::new(query.clone());
        let tight_run = exec.run_filtered(ds.test(), &fresh(), &oracle, tight);
        let loose_run = exec.run_filtered(ds.test(), &fresh(), &oracle, loose);

        let truth = exec.ground_truth(ds.test());
        let tight_recall = QueryAccuracy::compare(&tight_run.matched_frames, &truth).recall;
        let loose_recall = QueryAccuracy::compare(&loose_run.matched_frames, &truth).recall;

        prop_assert!(tight_run.frames_passed_filter <= loose_run.frames_passed_filter,
            "pass count must be monotone: {} > {}", tight_run.frames_passed_filter, loose_run.frames_passed_filter);
        prop_assert!(tight_recall <= loose_recall + 1e-6,
            "recall must be monotone: tight {tight_recall} vs loose {loose_recall}");
        // The looser run's answer set contains the tighter run's.
        for id in &tight_run.matched_frames {
            prop_assert!(loose_run.matched_frames.contains(id), "frame {id} lost when loosening tolerances");
        }
    }
}

/// Two aggregates plus a cascade select over one backend pass: evaluating
/// a frame's truth once per window changes how often an aggregate *asks* the
/// cache, never what the cache and the global ledger record about it — the
/// detector runs once per frame of `sampled ∪ escalated`, and each aggregate
/// is listed on exactly the frames its sampler drew.
#[test]
fn shared_aggregates_look_up_each_sampled_frame_once() {
    let oracle = vmq::detect::OracleDetector::perfect();
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 30, 250, 21);
    let seed = 0xA66u64;
    let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 5);
    let global = CostLedger::paper();
    // Few enough samples that some frames are never sampled, enough trials
    // that some are sampled twice.
    let (window, windows, sample_size, trials) = (100usize, 2usize, 10usize, 6usize);
    let seeds = [seed, seed ^ 0x51];
    let mut estimators = [
        WindowedAggregator::new(Query::paper_a1(), sample_size, trials, seeds[0]),
        WindowedAggregator::new(Query::paper_a2(), sample_size, trials, seeds[1]),
    ];
    let [first, second] = &mut estimators;
    let mut plan = SharedStreamPlan::new(&oracle, DetectionCache::new(), global.clone(), PipelineConfig::default());
    let backend = plan.add_backend(&filter);
    let select = plan.register_select(Query::paper_q3(), CascadeConfig::strict(), Some(backend), CostLedger::paper());
    let spec = AggregateSpec::new(window, window);
    let aggregates = [
        plan.register_aggregate(Query::paper_a1(), spec, &[backend], first, CostLedger::paper()),
        plan.register_aggregate(Query::paper_a2(), spec, &[backend], second, CostLedger::paper()),
    ];
    let runs = plan.execute_slice(ds.test());
    let frame_users = plan.cache().frame_users();
    let lookups = plan.cache().hits() + plan.cache().misses();
    drop(plan);

    let users_of = |user: usize| -> BTreeSet<u64> {
        frame_users.iter().filter(|(_, users)| users.contains(&user)).map(|((_, id), _)| *id).collect()
    };
    let mut union = users_of(select);
    assert_eq!(union.len(), runs[select].frames_detected, "the select consumed exactly its escalations");
    let mut distinct_samples = 0;
    for (&aggregate, &sampler_seed) in aggregates.iter().zip(&seeds) {
        // The frames this aggregate sampled, from the sampler alone.
        let sampler = FrameSampler::new(sampler_seed);
        let mut sampled = BTreeSet::new();
        for w in 0..windows {
            for trial in 0..trials {
                let key = ((w as u64) << 32) | trial as u64;
                sampled.extend(
                    sampler
                        .sample_indices(window, sample_size, key)
                        .iter()
                        .map(|&i| ds.test()[w * window + i].frame_id),
                );
            }
        }
        // Tumbling windows share no frame, so the set's size is the sum of
        // the per-window distinct sampled frames.
        distinct_samples += sampled.len();
        assert_eq!(users_of(aggregate), sampled, "the cache lists the aggregate on every frame it sampled");
        assert_eq!(runs[aggregate].frames_detected, windows * trials * sample_size, "as-if-isolated bill");
        union.extend(sampled);
    }
    assert_eq!(global.invocations(Stage::MaskRcnn), union.len() as u64, "detector runs = |sampled ∪ escalated|");
    // One lookup per escalated frame for the select and one per distinct
    // sampled frame per window for each aggregate — not one per trial
    // sample.
    assert_eq!(lookups, (runs[select].frames_detected + distinct_samples) as u64);
    assert!(distinct_samples < aggregates.len() * windows * window, "some frames are never sampled");
    assert!(distinct_samples < aggregates.len() * windows * trials * sample_size, "some frames are sampled twice");
}

fn row_workers(run: &QueryRun, operator: &str) -> usize {
    run.stage_metrics.iter().find(|m| m.operator == operator).expect("stage row").workers
}

/// A learned filter decodes on the whole machine ([`vmq::exec::parallelism`])
/// and its row reports that width, while the plan's own detect runs at 1;
/// answers and bills stay bit-identical to the eager per-frame decode.
#[test]
fn learned_filter_rows_report_the_decode_width() {
    let (ds, query) = scenario(DatasetKind::Jackson);
    let oracle = vmq::detect::OracleDetector::perfect();
    let od = OdFilter::new(FilterConfig::fast_test(ds.profile().class_list()));
    let frames = &ds.test()[..40];
    let (matched, detected, virtual_ms) =
        eager_reference(&query, frames, Some(&od), &oracle, Some(CascadeConfig::tolerant()));
    for batch_size in [1usize, 13] {
        let exec = QueryExecutor::new(query.clone()).with_batch_size(batch_size);
        let run = exec.run_filtered(frames, &od, &oracle, CascadeConfig::tolerant());
        assert_eq!(row_workers(&run, "cascade-filter"), vmq::exec::parallelism(), "batch {batch_size}");
        assert_eq!(row_workers(&run, "detect"), 1, "batch {batch_size}");
        assert_eq!(run.matched_frames, matched, "batch {batch_size}");
        assert_eq!(run.frames_detected, detected, "batch {batch_size}");
        assert_eq!(run.virtual_ms.to_bits(), virtual_ms.to_bits(), "batch {batch_size}");
    }
}

fn paper_selects() -> Vec<Query> {
    vec![
        Query::paper_q1(),
        Query::paper_q2(),
        Query::paper_q3(),
        Query::paper_q4(),
        Query::paper_q5(),
        Query::paper_q6(),
        Query::paper_q7(),
    ]
}

/// The acceptance criterion of the shared runtime: one pass over q1–q7
/// invokes the expensive detector exactly `|union of frames any query
/// escalates|` times. The union is recomputed independently from an
/// identically-seeded replica of the shared filter pass, and each per-query
/// run still pays (and reports) its own full escalation count.
#[test]
fn run_many_invokes_detector_once_per_escalation_union() {
    let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 200));
    let profile = CalibrationProfile::od_like();
    let choice = FilterChoice::Calibrated(profile);
    let queries = paper_selects();
    let statements: Vec<RuntimeQuery> = queries
        .iter()
        .map(|query| RuntimeQuery::Select { query: query.clone(), choice, cascade: CascadeConfig::tolerant() })
        .collect();
    let mut runtime = engine.runtime();
    for statement in statements {
        runtime.register(statement);
    }
    let outcome = runtime.run();

    // Replicate the one shared filter pass: same classes/grid/seed as the
    // engine resolves, estimates over the full stream (batch invariant).
    let config = engine.config();
    let filter = CalibratedFilter::new(config.filter.classes.clone(), config.filter.grid, profile, config.seed);
    let frames = engine.dataset().test();
    let estimates = filter.estimate_batch(frames);
    let mut union = std::collections::BTreeSet::new();
    let mut per_query = vec![0usize; queries.len()];
    for (i, query) in queries.iter().enumerate() {
        let cascade = FilterCascade::new(query.clone(), CascadeConfig::tolerant());
        for (frame, estimate) in frames.iter().zip(&estimates) {
            if cascade.passes(estimate, filter.threshold()) {
                union.insert(frame.frame_id);
                per_query[i] += 1;
            }
        }
    }

    assert_eq!(outcome.detector_invocations, union.len() as u64, "detector must run once per unioned frame");
    let per_query_sum: usize = per_query.iter().sum();
    assert!(union.len() < per_query_sum, "q1–q7 overlap: dedup must actually collapse work");
    for (i, out) in outcome.outcomes.iter().enumerate() {
        assert_eq!(out.run().frames_detected, per_query[i], "{} pays its own escalations", queries[i].name);
    }
    assert!(outcome.shared.speedup() > 1.0, "sharing must beat isolated: {:?}", outcome.shared.speedup());
    let attributed: f64 = outcome.shared.queries.iter().map(|s| s.attributed_ms).sum();
    assert!((attributed - outcome.shared.shared_total_ms).abs() < 1e-6, "the split covers the whole bill");
}

/// What [`run_family_plan`] leaves behind.
struct FamilyPass {
    runs: Vec<QueryRun>,
    /// The aggregate's window reports (empty without one).
    reports: Vec<vmq::aggregate::AggregateReport>,
    global: CostLedger,
    /// Each statement's `(name, isolated ms)`, registration order.
    isolated: Vec<(String, f64)>,
}

/// The first `selects` members of the overlapping family registered over one
/// calibrated backend of a fresh plan on `cache`, plus (optionally) an a1
/// aggregate on hopping windows that re-sample each other's frames.
fn run_family_plan(ds: &Dataset, cache: DetectionCache, selects: usize, with_aggregate: bool) -> FamilyPass {
    let oracle = vmq::detect::OracleDetector::perfect();
    let filter = CalibratedFilter::new(ds.profile().class_list(), 14, CalibrationProfile::od_like(), 5);
    let mut estimator = WindowedAggregator::new(Query::paper_a1(), 12, 6, 0xA66);
    let global = CostLedger::paper();
    let mut plan = SharedStreamPlan::new(&oracle, cache, global.clone(), PipelineConfig::with_batch_size(16));
    let backend = plan.add_backend(&filter);
    let mut isolated = Vec::new();
    for query in overlapping_family().into_iter().take(selects) {
        let ledger = CostLedger::paper();
        isolated.push((query.name.clone(), ledger.clone()));
        plan.register_select(query, CascadeConfig::tolerant(), Some(backend), ledger);
    }
    if with_aggregate {
        let ledger = CostLedger::paper();
        isolated.push(("a1".to_string(), ledger.clone()));
        plan.register_aggregate(Query::paper_a1(), AggregateSpec::new(60, 30), &[backend], &mut estimator, ledger);
    }
    let runs = plan.execute_slice(ds.test());
    drop(plan);
    let isolated = isolated.into_iter().map(|(name, ledger)| (name, ledger.total_ms())).collect();
    FamilyPass { runs, reports: estimator.into_reports(), global, isolated }
}

/// The accounting that recording a frame's consumers in one cache call must
/// not move. For a 10-statement shared pass over an *evicting* cache, the
/// (frame, subscriber) stream is recomputed from an identically-seeded
/// replica of the filter pass and replayed through the single-user `get` /
/// `insert` calls the plan used to make: lookups = Σ over frames of
/// subscribers, misses = the escalation union, and every statement's
/// `QueryCostShare` is the replay's to the bit — settled shares of evicted
/// frames and key-ordered resident splits included.
#[test]
fn batched_consumer_recording_equals_a_single_user_replay() {
    let ds = Dataset::generate(&DatasetProfile::jackson(), 30, 200, 23);
    let budget = 24;
    let cache = DetectionCache::with_entry_budget(budget);
    let FamilyPass { runs, global, isolated, .. } = run_family_plan(&ds, cache.clone(), 10, false);

    let oracle = vmq::detect::OracleDetector::perfect();
    let replica = CalibratedFilter::new(ds.profile().class_list(), 14, CalibrationProfile::od_like(), 5);
    let cascades: Vec<FilterCascade> =
        overlapping_family().into_iter().take(10).map(|q| FilterCascade::new(q, CascadeConfig::tolerant())).collect();
    let replay = DetectionCache::with_entry_budget(budget);
    let (mut lookups, mut union, mut per_query) = (0u64, 0u64, vec![0usize; cascades.len()]);
    for (frame, estimate) in ds.test().iter().zip(&replica.estimate_batch(ds.test())) {
        let subscribers: Vec<usize> =
            (0..cascades.len()).filter(|&q| cascades[q].passes(estimate, replica.threshold())).collect();
        let Some((&first, rest)) = subscribers.split_first() else { continue };
        lookups += subscribers.len() as u64;
        union += 1;
        assert!(replay.get(frame, first).is_none(), "a stream frame is escalated once");
        replay.insert(frame, std::sync::Arc::new(oracle.detect(frame)), first);
        for &user in rest {
            assert!(replay.get(frame, user).is_some());
        }
        for &q in &subscribers {
            per_query[q] += 1;
        }
    }
    assert!(union < lookups, "the family overlaps: frames have several subscribers");
    assert!(union > budget as u64, "the pass must evict");

    assert_eq!(cache.hits() + cache.misses(), lookups, "one recorded lookup per (frame, subscriber)");
    assert_eq!(cache.misses(), union, "one miss per frame of the escalation union");
    assert_eq!(global.invocations(Stage::MaskRcnn), union);
    for (run, &escalated) in runs.iter().zip(&per_query) {
        assert_eq!(run.frames_detected, escalated, "each statement pays its own escalations");
    }
    let bits = |cache: &DetectionCache| -> Vec<(usize, u64)> {
        cache.settled_shares().into_iter().map(|(user, share)| (user, share.to_bits())).collect()
    };
    assert_eq!(cache.hits(), replay.hits());
    assert_eq!((cache.evictions(), cache.evicted_bytes()), (replay.evictions(), replay.evicted_bytes()));
    assert_eq!(cache.frame_users(), replay.frame_users());
    assert_eq!(bits(&cache), bits(&replay));

    // Re-settling the plan's own global ledger from the replayed cache
    // replaces only the detector split, so equal rows mean equal splits.
    let batched = global.shared_cost(&isolated);
    replay.attribute_detections(&global, Stage::MaskRcnn);
    let replayed = global.shared_cost(&isolated);
    for (a, b) in batched.queries.iter().zip(&replayed.queries) {
        assert_eq!((&a.query, a.attributed_ms.to_bits()), (&b.query, b.attributed_ms.to_bits()));
        assert!(a.attributed_ms > 0.0);
    }
}

/// Fault injection for starved caches (one entry; a zero byte budget): eight
/// selects and an aggregate on overlapping windows re-detect what a roomy
/// cache would have served, but return the same matches and window reports,
/// and every one of the extra detector charges stays attributed.
#[test]
fn starved_caches_cost_detector_work_but_change_no_answer() {
    let ds = Dataset::generate(&DatasetProfile::jackson(), 30, 200, 23);
    let roomy_cache = DetectionCache::new();
    let roomy = run_family_plan(&ds, roomy_cache.clone(), 8, true);
    assert!(!roomy.reports.is_empty() && roomy_cache.hits() > 0);
    for starved_cache in [DetectionCache::with_entry_budget(1), DetectionCache::with_byte_budget(0)] {
        let FamilyPass { runs, reports, global, .. } = run_family_plan(&ds, starved_cache.clone(), 8, true);
        for (starved, roomy) in runs.iter().zip(&roomy.runs) {
            assert_eq!(starved.matched_frames, roomy.matched_frames);
            assert_eq!(starved.frames_detected, roomy.frames_detected);
            assert_eq!(starved.virtual_ms.to_bits(), roomy.virtual_ms.to_bits());
        }
        assert_eq!(reports.len(), roomy.reports.len());
        for (starved, roomy) in reports.iter().zip(&roomy.reports) {
            assert_eq!(starved.window_start, roomy.window_start);
            assert_eq!(starved.plain_mean.to_bits(), roomy.plain_mean.to_bits());
            assert_eq!(starved.mcv_mean.to_bits(), roomy.mcv_mean.to_bits());
            assert_eq!(starved.mcv_variance.to_bits(), roomy.mcv_variance.to_bits());
        }
        assert_eq!(starved_cache.len(), 1, "only the most recent frame stays resident");
        assert_eq!(starved_cache.evictions(), starved_cache.misses() - 1);
        assert!(starved_cache.misses() > roomy_cache.misses(), "overlapping windows re-detect evicted frames");
        assert_eq!(global.invocations(Stage::MaskRcnn), starved_cache.misses());
        let attributed: f64 = (0..runs.len()).map(|user| global.attributed_frames(Stage::MaskRcnn, user)).sum();
        assert!((attributed - starved_cache.misses() as f64).abs() < 1e-6, "{attributed} units attributed");
    }
}
