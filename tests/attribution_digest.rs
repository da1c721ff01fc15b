//! Pins the cost attribution of a shared pass bit for bit.
//!
//! `pipeline_parity.rs` and the fleet tests compare two paths through the
//! same ledger and cache code, so a change to that code moves both sides at
//! once. This test folds the raw bits of every attribution figure a pass
//! reports into one digest recorded from the ledger and cache as first
//! written: any drift in any share, rollup or stage total changes it.
//!
//! Two setups:
//! * a 50-statement plan shaped like the `standing_many` workload — fixed
//!   cascades over a q3/q5-shaped family, brute force, an adaptively
//!   planned select, drift-monitored selects and windowed aggregates — over
//!   one camera, folding the global and every private ledger's breakdowns,
//!   the [`SharedCost`] rows and each run's virtual time;
//! * a three-camera, two-tenant fleet whose byte-budgeted cache evicts, so
//!   the cache's settled per-user shares reach the ledger, folding the
//!   shared rows, the per-camera and per-tenant rollups and each run's
//!   virtual time.

use vmq::aggregate::WindowedAggregator;
use vmq::detect::{CostLedger, DetectionCache, GroupCost, OracleDetector, SharedCost, StageCost};
use vmq::engine::{FleetConfig, FleetRuntime};
use vmq::filters::{CalibratedFilter, CalibrationProfile, FrameFilter};
use vmq::query::ast::CountOp;
use vmq::query::{
    plan_cascade, AggregateSpec, CascadeConfig, DriftConfig, DriftSetup, ObjectRef, PipelineConfig, Query, QueryRun,
    RegionCatalog, SharedStreamPlan, SpatialRelation, StageMetrics, WindowEstimator,
};
use vmq::video::{BoundingBox, Color, Dataset, DatasetProfile, ObjectClass, Scene, SceneConfig};

/// Order-sensitive 64-bit fold of a word sequence.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(23) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn shared(&mut self, shared: &SharedCost) {
        self.word(shared.queries.len() as u64);
        for row in &shared.queries {
            self.f64(row.attributed_ms);
            self.f64(row.isolated_ms);
        }
        self.f64(shared.shared_total_ms);
        self.f64(shared.isolated_total_ms);
    }

    fn groups(&mut self, groups: &[GroupCost]) {
        self.word(groups.len() as u64);
        for group in groups {
            self.word(group.statements as u64);
            self.f64(group.attributed_ms);
            self.f64(group.isolated_ms);
        }
    }

    fn stages(&mut self, costs: &[StageCost]) {
        self.word(costs.len() as u64);
        for cost in costs {
            self.word(cost.stage as u64);
            self.word(cost.frames);
            self.f64(cost.virtual_ms);
        }
    }

    fn ledger(&mut self, ledger: &CostLedger) {
        self.stages(&ledger.breakdown());
        self.stages(&ledger.calibration_breakdown());
        self.stages(&ledger.audit_breakdown());
    }

    fn runs<'r>(&mut self, runs: impl IntoIterator<Item = &'r QueryRun>) {
        for run in runs {
            self.f64(run.virtual_ms);
        }
    }
}

/// The q3/q5-shaped select family: a car-count and a person-count atom,
/// optionally with one spatial or region atom.
fn select_family() -> Vec<Query> {
    let mut family = Vec::new();
    let people = [(CountOp::AtLeast, 1), (CountOp::AtLeast, 2), (CountOp::AtMost, 2), (CountOp::AtMost, 3)];
    for (car_op, cars) in [(CountOp::Exactly, 1), (CountOp::AtMost, 1)] {
        for (person_op, persons) in people {
            let base = Query::new(&format!("s{:02}", family.len()))
                .class_count(ObjectClass::Car, car_op, cars)
                .class_count(ObjectClass::Person, person_op, persons);
            family.push(base.clone());
            let car = ObjectRef::class(ObjectClass::Car);
            let person = ObjectRef::class(ObjectClass::Person);
            family.push(base.clone().spatial(car, SpatialRelation::LeftOf, person));
            family.push(base.clone().spatial(car, SpatialRelation::Above, person));
            family.push(base.clone().in_region(car, "lower-right", 1));
        }
    }
    for (i, query) in family.iter_mut().enumerate() {
        query.name = format!("s{i:02}");
    }
    family
}

/// Statements the family does not cover: colour references, a zero
/// `min_count`, an unknown region, and one region name mapped to different
/// boxes by two catalogues.
fn edge_selects() -> Vec<Query> {
    let mut lane_low = RegionCatalog::standard();
    lane_low.insert("lane", BoundingBox::new(0.0, 0.6, 1.0, 0.4));
    let mut lane_high = RegionCatalog::standard();
    lane_high.insert("lane", BoundingBox::new(0.0, 0.0, 1.0, 0.4));
    let car = ObjectRef::class(ObjectClass::Car);
    vec![
        Query::new("red_car").colored_count(ObjectClass::Car, Color::Red, CountOp::AtLeast, 1),
        Query::new("red_left").spatial(ObjectRef::colored(ObjectClass::Car, Color::Red), SpatialRelation::LeftOf, car),
        Query::new("lane_low").in_region(car, "lane", 1).with_catalog(lane_low),
        Query::new("lane_high").in_region(car, "lane", 1).with_catalog(lane_high),
        Query::new("anywhere").in_region(car, "full", 0).class_count(ObjectClass::Person, CountOp::AtMost, 3),
        Query::new("nowhere").in_region(car, "bike-lane", 1),
    ]
}

const STREAM_FRAMES: usize = 480;
const PREFIX_FRAMES: usize = 64;

fn calibrated(profile: CalibrationProfile, seed: u64) -> CalibratedFilter {
    CalibratedFilter::new(DatasetProfile::jackson().class_list(), 14, profile, seed)
}

/// The 50-statement plan: 32 family selects at tolerance (1, 1), six edge
/// selects, two brute-force selects, one adaptive select, two drift-monitored
/// selects over two candidate backends and seven windowed aggregates.
fn plan_digest() -> (u64, u64) {
    let frames = Dataset::generate(&DatasetProfile::jackson(), 0, STREAM_FRAMES, 33).test().to_vec();
    let oracle = OracleDetector::perfect();
    let od = calibrated(CalibrationProfile::od_like(), 5);
    let ic = calibrated(CalibrationProfile::ic_like(), 6);
    let global = CostLedger::paper();
    let aggregate_queries = [
        Query::paper_a1(),
        Query::paper_a2(),
        Query::new("g_lower_left").in_region(ObjectRef::class(ObjectClass::Car), "lower-left", 1),
        Query::new("g_person_ur").in_region(ObjectRef::class(ObjectClass::Person), "upper-right", 1),
        Query::paper_a1(),
        Query::paper_a2(),
        Query::paper_a3(),
    ];
    let mut estimators: Vec<WindowedAggregator> = aggregate_queries
        .iter()
        .enumerate()
        .map(|(i, query)| {
            let estimator = WindowedAggregator::new(query.clone(), 6, 3, 70 + i as u64);
            if i == 4 {
                estimator.with_adaptive_backend(8)
            } else {
                estimator
            }
        })
        .collect();

    // The adaptive select is planned on the stream's prefix, billed to its
    // private ledger, before the plan borrows the filters.
    let adaptive = Query::new("adaptive").class_count(ObjectClass::Car, CountOp::Exactly, 0).class_count(
        ObjectClass::Person,
        CountOp::AtLeast,
        1,
    );
    let adaptive_ledger = CostLedger::paper();
    let backends: [&dyn FrameFilter; 1] = [&od];
    let report = plan_cascade(
        &adaptive,
        &frames[..PREFIX_FRAMES],
        &backends,
        &CascadeConfig::lattice(),
        &oracle,
        &adaptive_ledger,
        PipelineConfig::DEFAULT_BATCH_SIZE,
    );

    let mut plan = SharedStreamPlan::new(&oracle, DetectionCache::new(), global.clone(), PipelineConfig::default());
    let b_od = plan.add_backend(&od);
    let b_ic = plan.add_backend(&ic);
    let mut ledgers = Vec::new();
    let mut register = |plan: &mut SharedStreamPlan<'_>, query: Query, cascade: CascadeConfig, backend| {
        let ledger = CostLedger::paper();
        plan.register_select(query.clone(), cascade, backend, ledger.clone());
        ledgers.push((query.name, ledger));
    };
    for query in select_family() {
        register(&mut plan, query, CascadeConfig::tolerant(), Some(b_od));
    }
    for (i, query) in edge_selects().into_iter().enumerate() {
        let backend = if i % 2 == 0 { b_od } else { b_ic };
        register(&mut plan, query, CascadeConfig::strict(), Some(backend));
    }
    register(&mut plan, Query::paper_q3(), CascadeConfig::tolerant(), None);
    register(&mut plan, Query::paper_q5(), CascadeConfig::tolerant(), None);
    plan.register_select_with(
        adaptive.clone(),
        report.choice.cascade,
        (!report.choice.brute_force).then_some(b_od),
        adaptive_ledger.clone(),
        format!("adaptive {}", report.choice.label),
        Some(StageMetrics::calibrate(&report)),
    );
    ledgers.push((adaptive.name.clone(), adaptive_ledger));
    for (i, query) in [Query::paper_q3(), Query::paper_q5()].into_iter().enumerate() {
        let ledger = CostLedger::paper();
        let config = DriftConfig::new(0.2).with_seed(11 + i as u64).with_window(96).with_min_truth(8).with_cooldown(32);
        plan.register_select_drifted(
            query.clone(),
            CascadeConfig::strict(),
            Some(b_od),
            ledger.clone(),
            "drift".to_string(),
            None,
            DriftSetup { config, candidate_backends: vec![b_od, b_ic], tolerances: CascadeConfig::lattice() },
        );
        ledgers.push((format!("{}_drift", query.name), ledger));
    }
    for (i, (estimator, query)) in estimators.iter_mut().zip(aggregate_queries).enumerate() {
        let ledger = CostLedger::paper();
        let (spec, backends) = match i {
            0..=3 => (AggregateSpec::new(120, 120), vec![b_od]),
            4 => (AggregateSpec::new(160, 80), vec![b_od, b_ic]),
            _ => (AggregateSpec::new(96, 48).with_cascade(CascadeConfig::tolerant()), vec![b_ic]),
        };
        plan.register_aggregate(query.clone(), spec, &backends, estimator as &mut dyn WindowEstimator, ledger.clone());
        ledgers.push((format!("g{i}"), ledger));
    }
    assert_eq!(ledgers.len(), 50, "a standing_many-sized plan");

    let runs = plan.execute_slice(&frames);
    drop(plan);
    let mut digest = Digest::new();
    let shares: Vec<(String, f64)> = ledgers.iter().map(|(name, ledger)| (name.clone(), ledger.total_ms())).collect();
    digest.shared(&global.shared_cost(&shares));
    digest.ledger(&global);
    for (_, ledger) in &ledgers {
        digest.ledger(ledger);
    }
    digest.runs(&runs);
    let audits: u64 = runs.iter().map(|run| run.audit_frames).sum();
    (digest.0, audits)
}

/// Three cameras, two tenants, a cache a few frames deep: returns the
/// digest and the eviction count.
fn fleet_digest() -> (u64, u64) {
    let oracle = OracleDetector::perfect();
    let filters: Vec<CalibratedFilter> = (0..3).map(|c| calibrated(CalibrationProfile::od_like(), 40 + c)).collect();
    let mut estimators: Vec<WindowedAggregator> =
        (0..3).map(|c| WindowedAggregator::new(Query::paper_a1(), 5, 3, 90 + c)).collect();
    let config =
        FleetConfig { batch_size: 16, workers: 2, queue_capacity: 256, cache_bytes: 4096, ..FleetConfig::default() };
    let mut fleet = FleetRuntime::new(&oracle, config);
    for (c, (filter, estimator)) in filters.iter().zip(estimators.iter_mut()).enumerate() {
        let scene =
            Scene::new(SceneConfig::from_profile(&DatasetProfile::jackson()).with_camera(c as u32), 300 + c as u64);
        let cam = fleet.add_camera(scene);
        let b = fleet.add_backend(cam, filter);
        let tenant = if c == 0 { "acme" } else { "globex" };
        fleet.register_select(cam, tenant, Query::paper_q3(), CascadeConfig::tolerant(), Some(b));
        fleet.register_select(cam, tenant, Query::paper_q4(), CascadeConfig::tolerant(), Some(b));
        fleet.register_select(cam, "shared", Query::paper_q5(), CascadeConfig::loose(), Some(b));
        fleet.register_select(cam, "shared", Query::paper_q4(), CascadeConfig::strict(), None);
        fleet.register_aggregate(cam, tenant, Query::paper_a1(), AggregateSpec::new(48, 24), &[b], estimator);
    }
    for _ in 0..6 {
        fleet.ingest(20);
        fleet.poll();
    }
    let outcome = fleet.finish();
    let mut digest = Digest::new();
    digest.shared(&outcome.shared);
    digest.groups(&outcome.by_camera);
    digest.groups(&outcome.by_tenant);
    digest.runs(outcome.statements.iter().map(|s| &s.run));
    (digest.0, outcome.cache_evictions)
}

#[test]
fn standing_plan_attribution_matches_the_pinned_digest() {
    let (digest, audits) = plan_digest();
    assert!(audits > 0, "the drift monitors' audit channel must run");
    assert_eq!(digest, 0x7358_e044_1a7d_2415, "plan attribution digest {digest:#018x}");
}

#[test]
fn evicting_fleet_attribution_matches_the_pinned_digest() {
    let (digest, evictions) = fleet_digest();
    assert!(evictions > 0, "the fleet cache must evict so settled shares reach the ledger");
    assert_eq!(digest, 0xd805_1a67_0724_0459, "fleet attribution digest {digest:#018x}");
}
