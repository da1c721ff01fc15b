//! Property-based tests of query evaluation, the filter cascade and the
//! parser (pretty-print → re-parse round trip).

use proptest::prelude::*;
use vmq_detect::{CostLedger, Detection, DetectionCache, Detector, FrameDetections, OracleDetector};
use vmq_filters::{CalibratedFilter, CalibrationProfile, FrameFilter};
use vmq_query::ast::CountOp;
use vmq_query::{
    format_statement, parse_statement, CascadeConfig, CountTarget, FilterCascade, ObjectRef, PipelineConfig, Predicate,
    Query, RegionCatalog, SharedStreamPlan, SpatialRelation,
};
use vmq_video::{BoundingBox, Color, Frame, ObjectClass, SceneObject};

fn bbox_strategy() -> impl Strategy<Value = BoundingBox> {
    (0.0f32..0.9, 0.0f32..0.9, 0.03f32..0.25, 0.03f32..0.25).prop_map(|(x, y, w, h)| BoundingBox::new(x, y, w, h))
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop::collection::vec((bbox_strategy(), 0usize..2, 0usize..3), 0..6).prop_map(|objs| Frame {
        camera_id: 0,
        frame_id: 7,
        timestamp: 0.0,
        objects: objs
            .into_iter()
            .enumerate()
            .map(|(i, (bbox, class_idx, color_idx))| SceneObject {
                track_id: i as u64,
                class: [ObjectClass::Car, ObjectClass::Person][class_idx],
                color: [Color::Red, Color::Blue, Color::White][color_idx],
                bbox,
                velocity: (0.0, 0.0),
            })
            .collect(),
    })
}

/// Screen regions used by generated region predicates (parser region names
/// are resolved against the standard catalogue at evaluation time).
const REGIONS: [&str; 4] = ["full", "upper-left", "lower-right", "right-half"];

fn object_ref_from(class_idx: usize, color_idx: usize) -> ObjectRef {
    let class = ObjectClass::ALL[class_idx % ObjectClass::ALL.len()];
    if color_idx < Color::ALL.len() {
        ObjectRef::colored(class, Color::ALL[color_idx])
    } else {
        ObjectRef::class(class)
    }
}

/// Generates an arbitrary predicate: count (total / class / class+colour),
/// spatial (any relation, optionally coloured refs) or region.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (0u8..3, 0usize..ObjectClass::ALL.len(), 0usize..Color::ALL.len() + 1, 0u8..3, 0u32..4, 0usize..8).prop_map(
        |(kind, class_idx, color_idx, op_idx, value, extra)| {
            let op = [CountOp::Exactly, CountOp::AtLeast, CountOp::AtMost][op_idx as usize];
            let class = ObjectClass::ALL[class_idx];
            match kind {
                0 => {
                    let target = match extra % 3 {
                        0 => CountTarget::Total,
                        1 => CountTarget::Class(class),
                        _ => CountTarget::ClassColor(class, Color::ALL[color_idx % Color::ALL.len()]),
                    };
                    Predicate::Count { target, op, value }
                }
                1 => {
                    let relation = [
                        SpatialRelation::LeftOf,
                        SpatialRelation::RightOf,
                        SpatialRelation::Above,
                        SpatialRelation::Below,
                    ][extra % 4];
                    Predicate::Spatial {
                        first: object_ref_from(class_idx, color_idx),
                        relation,
                        second: object_ref_from(class_idx + 1 + extra, Color::ALL.len() - color_idx),
                    }
                }
                _ => Predicate::Region {
                    object: object_ref_from(class_idx, color_idx),
                    region: REGIONS[extra % REGIONS.len()].to_string(),
                    min_count: value,
                },
            }
        },
    )
}

/// Generates a random query AST plus a window clause. Every generated
/// statement carries a `WINDOW HOPPING` clause so the round trip always
/// exercises it: tumbling windows (kind 0) pretty-print with `ADVANCE BY`
/// omitted, so re-parsing must apply the advance-defaults-to-size rule;
/// other kinds spell the advance out. (The window-less round trip is pinned
/// by the parser's unit tests.)
fn ast_strategy() -> impl Strategy<Value = (Query, Option<(usize, usize)>)> {
    (prop::collection::vec(predicate_strategy(), 0..5), 0usize..3, 1usize..5000, 1usize..5000).prop_map(
        |(predicates, window_kind, size, advance)| {
            let mut query = Query::new("roundtrip");
            query.predicates = predicates;
            let window = match window_kind {
                0 => Some((size, size)),
                _ => Some((size, advance)),
            };
            (query, window)
        },
    )
}

fn paper_query_strategy() -> impl Strategy<Value = Query> {
    (0usize..5).prop_map(|i| match i {
        0 => Query::paper_q1(),
        1 => Query::paper_q3(),
        2 => Query::paper_q4(),
        3 => Query::paper_q5(),
        _ => Query::paper_a1(),
    })
}

/// The exact evaluator as first written — one collected box list per
/// spatial or region operand over a materialised `FrameDetections` — kept as
/// the reference of the allocation-free evaluator.
fn reference_matches(query: &Query, detections: &FrameDetections) -> bool {
    let boxes_of = |obj: &ObjectRef| -> Vec<BoundingBox> {
        detections
            .detections
            .iter()
            .filter(|d| d.class == obj.class && (obj.color.is_none() || d.color == obj.color))
            .map(|d| d.bbox)
            .collect()
    };
    query.predicates.iter().all(|predicate| match predicate {
        Predicate::Count { target, op, value } => {
            let count = match target {
                CountTarget::Total => detections.count() as i64,
                CountTarget::Class(c) => detections.class_count(*c) as i64,
                CountTarget::ClassColor(c, col) => detections.of_class_and_color(*c, *col).len() as i64,
            };
            op.holds(count, *value as i64)
        }
        Predicate::Spatial { first, relation, second } => relation.holds_any_pair(&boxes_of(first), &boxes_of(second)),
        Predicate::Region { object, region, min_count } => {
            let Some(r) = query.catalog.get(region) else { return false };
            boxes_of(object).iter().filter(|b| b.intersects(&r)).count() >= *min_count as usize
        }
    })
}

/// Detections over every class and colour, some with the colour dropped (a
/// colour-blind detector), possibly none at all.
fn detections_strategy() -> impl Strategy<Value = FrameDetections> {
    let detection = (bbox_strategy(), 0usize..ObjectClass::ALL.len(), 0usize..Color::ALL.len() + 1);
    prop::collection::vec(detection, 0..7).prop_map(|objs| FrameDetections {
        frame_id: 3,
        detections: objs
            .into_iter()
            .map(|(bbox, class, color)| Detection {
                class: ObjectClass::ALL[class],
                color: Color::ALL.get(color).copied(),
                bbox,
                score: 1.0,
                track_id: None,
            })
            .collect(),
    })
}

/// Queries of one to four arbitrary predicates, region names sometimes
/// unknown to the catalogue.
fn evaluator_query_strategy() -> impl Strategy<Value = Query> {
    (prop::collection::vec((predicate_strategy(), prop::bool::ANY), 1..5)).prop_map(|predicates| {
        let mut query = Query::new("eval");
        query.predicates = predicates
            .into_iter()
            .map(|(predicate, unknown)| match predicate {
                Predicate::Region { object, min_count, .. } if unknown => {
                    Predicate::Region { object, region: "no-such-region".to_string(), min_count }
                }
                other => other,
            })
            .collect();
        query
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The allocation-free evaluator agrees with the collecting reference on
    /// detections and on ground truth, for every predicate kind.
    #[test]
    fn evaluator_matches_the_collecting_reference(
        detections in detections_strategy(),
        frame in frame_strategy(),
        query in evaluator_query_strategy(),
    ) {
        prop_assert_eq!(query.matches_detections(&detections), reference_matches(&query, &detections));
        let truth = OracleDetector::perfect().detect(&frame);
        prop_assert_eq!(query.matches_ground_truth(&frame), reference_matches(&query, &truth));
        for predicate in &query.predicates {
            let mut single = Query::new("one");
            single.predicates = vec![predicate.clone()];
            prop_assert_eq!(single.matches_detections(&detections), reference_matches(&single, &detections));
        }
    }

    /// Ground-truth evaluation agrees with evaluating the perfect detector's
    /// output (they are the same information through two code paths).
    #[test]
    fn ground_truth_matches_perfect_detector(frame in frame_strategy(), query in paper_query_strategy()) {
        let oracle = OracleDetector::perfect();
        let detections = oracle.detect(&frame);
        prop_assert_eq!(query.matches_ground_truth(&frame), query.matches_detections(&detections));
    }

    /// Spatial relations between two distinct single objects: exactly one of
    /// `left-of` / `right-of` holds unless the centres share a column.
    #[test]
    fn spatial_relations_are_exclusive(a in bbox_strategy(), b in bbox_strategy()) {
        let l = SpatialRelation::LeftOf.holds_boxes(&a, &b);
        let r = SpatialRelation::RightOf.holds_boxes(&a, &b);
        prop_assert!(!(l && r));
        if (a.center().0 - b.center().0).abs() > 1e-6 {
            prop_assert!(l || r);
        }
    }

    /// The cascade with a *perfect* filter and any tolerance never drops a
    /// frame that truly satisfies the query (no false negatives), for all of
    /// the paper's count/spatial/region predicate shapes.
    #[test]
    fn cascade_is_safe_with_perfect_filter(
        frame in frame_strategy(),
        query in paper_query_strategy(),
        count_tol in 0u32..3,
        loc_tol in 0usize..3,
    ) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::perfect(), 3);
        let cascade = FilterCascade::new(query.clone(), CascadeConfig { count_tolerance: count_tol, location_tolerance: loc_tol });
        if query.matches_ground_truth(&frame) {
            let est = filter.estimate(&frame);
            prop_assert!(cascade.passes(&est, filter.threshold()),
                "cascade dropped a true frame for query {} with {} objects", query.name, frame.objects.len());
        }
    }

    /// Loosening the cascade tolerances never turns a pass into a drop.
    #[test]
    fn cascade_monotone_in_tolerance(frame in frame_strategy(), query in paper_query_strategy()) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::od_like(), 9);
        let est = filter.estimate(&frame);
        let strict = FilterCascade::new(query.clone(), CascadeConfig::strict());
        let loose = FilterCascade::new(query.clone(), CascadeConfig::loose());
        if strict.passes(&est, filter.threshold()) {
            prop_assert!(loose.passes(&est, filter.threshold()));
        }
    }

    /// Per-predicate indicators are consistent with the overall cascade
    /// decision (the conjunction of the indicators).
    #[test]
    fn indicators_conjunction_equals_pass(frame in frame_strategy(), query in paper_query_strategy()) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::od_like(), 11);
        let est = filter.estimate(&frame);
        let cascade = FilterCascade::new(query.clone(), CascadeConfig::tolerant());
        let indicators = cascade.predicate_indicators(&est, filter.threshold());
        prop_assert_eq!(indicators.len(), query.predicates.len());
        prop_assert_eq!(indicators.iter().all(|&b| b), cascade.passes(&est, filter.threshold()));
    }

    /// Parser round trip: pretty-printing an arbitrary AST into the paper's
    /// SQL-like syntax and re-parsing it reproduces the predicates and the
    /// window clause exactly.
    #[test]
    fn parser_round_trips_arbitrary_asts((query, window) in ast_strategy()) {
        let text = format_statement(&query, window);
        let parsed = parse_statement("roundtrip", &text)
            .unwrap_or_else(|e| panic!("cannot re-parse `{text}`: {e}"));
        prop_assert_eq!(&parsed.query.predicates, &query.predicates, "statement `{}`", text);
        prop_assert_eq!(parsed.window, window, "statement `{}`", text);
    }

    /// Queries built from arbitrary count predicates evaluate consistently
    /// with a manual count of the frame's objects.
    #[test]
    fn count_predicates_match_manual_count(frame in frame_strategy(), value in 0u32..4) {
        let query = Query::new("manual").class_count(ObjectClass::Car, vmq_query::ast::CountOp::AtLeast, value);
        let manual = frame.class_count(ObjectClass::Car) >= value as usize;
        prop_assert_eq!(query.matches_ground_truth(&frame), manual);
        // the predicate list reflects what was added
        prop_assert_eq!(query.predicates.len(), 1);
        match &query.predicates[0] {
            Predicate::Count { target, .. } => prop_assert_eq!(*target, CountTarget::Class(ObjectClass::Car)),
            _ => prop_assert!(false, "unexpected predicate shape"),
        }
        let _ = ObjectRef::class(ObjectClass::Car);
    }
}

/// The standard catalogue, and two that give the name `lane` different
/// boxes (the first also moves `lower-right`).
fn catalogue(kind: usize) -> RegionCatalog {
    let mut catalog = RegionCatalog::standard();
    match kind {
        0 => {}
        1 => {
            catalog.insert("lane", BoundingBox::new(0.0, 0.6, 1.0, 0.4));
            catalog.insert("lower-right", BoundingBox::new(0.6, 0.6, 0.4, 0.4));
        }
        _ => catalog.insert("lane", BoundingBox::new(0.0, 0.0, 1.0, 0.4)),
    }
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A plan's exact evaluation, which interns predicates by their resolved
    /// region box and evaluates each at most once per detected frame,
    /// matches every statement evaluated alone by the collecting reference:
    /// across catalogues that give one region name different boxes, colour
    /// references, `min_count` 0 and unknown regions, at any batch size.
    #[test]
    fn interned_exact_evaluation_equals_per_statement_evaluation(
        frames in prop::collection::vec(frame_strategy(), 1..24),
        statements in prop::collection::vec((evaluator_query_strategy(), 0usize..3, prop::bool::ANY), 1..8),
        batch in 1usize..9,
    ) {
        let frames: Vec<Frame> =
            frames.into_iter().enumerate().map(|(i, frame)| Frame { frame_id: i as u64, ..frame }).collect();
        let queries: Vec<Query> = statements
            .into_iter()
            .map(|(mut query, kind, lane)| {
                for predicate in &mut query.predicates {
                    if let Predicate::Region { region, .. } = predicate {
                        if lane {
                            *region = "lane".to_string();
                        }
                    }
                }
                query.with_catalog(catalogue(kind))
            })
            .collect();
        let oracle = OracleDetector::perfect();
        let mut plan = SharedStreamPlan::new(
            &oracle,
            DetectionCache::new(),
            CostLedger::paper(),
            PipelineConfig::with_batch_size(batch),
        );
        for query in &queries {
            plan.register_select(query.clone(), CascadeConfig::strict(), None, CostLedger::paper());
        }
        let runs = plan.execute_slice(&frames);
        for (query, run) in queries.iter().zip(&runs) {
            let want: Vec<u64> = frames
                .iter()
                .filter(|frame| reference_matches(query, &oracle.detect(frame)))
                .map(|frame| frame.frame_id)
                .collect();
            prop_assert_eq!(&run.matched_frames, &want, "{:?}", query.predicates);
        }
    }
}
