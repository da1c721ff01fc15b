//! The compiled cascade evaluator against its naive reference.
//!
//! [`naive`] is the per-statement check the compiled [`AtomTable`] replaced,
//! kept verbatim as the specification: re-threshold each class grid into a
//! fresh binary [`ClassGrid`], dilate it by scanning for occupied cells
//! within the Manhattan radius, then mask or scan it. The property below
//! holds the compiled path — one statement at a time through
//! [`FilterCascade`], and many statements fanned out of one shared table —
//! to that reference on every finite estimate.

use proptest::prelude::*;
use vmq_filters::{ClassGrid, FilterEstimate, FilterKind};
use vmq_query::ast::CountOp;
use vmq_query::plan::AtomTable;
use vmq_query::{CascadeConfig, CountTarget, FilterCascade, ObjectRef, Predicate, Query, SpatialRelation};
use vmq_video::{Color, ObjectClass};

/// The threshold → dilate → scan reference implementation.
mod naive {
    use super::*;

    fn count_possible(config: CascadeConfig, op: CountOp, estimated: i64, value: i64) -> bool {
        let tol = config.count_tolerance as i64;
        match op {
            CountOp::Exactly => (estimated - value).abs() <= tol,
            CountOp::AtLeast => estimated >= value - tol,
            CountOp::AtMost => estimated <= value + tol,
        }
    }

    fn predicate_possible(
        query: &Query,
        config: CascadeConfig,
        predicate: &Predicate,
        estimate: &FilterEstimate,
        threshold: f32,
    ) -> bool {
        match predicate {
            Predicate::Count { target, op, value } => match target {
                CountTarget::Total => count_possible(config, *op, estimate.total_count_rounded(), *value as i64),
                CountTarget::Class(c) => match estimate.count_for_rounded(*c) {
                    Some(est) => count_possible(config, *op, est, *value as i64),
                    None => true,
                },
                CountTarget::ClassColor(c, _) => match estimate.count_for_rounded(*c) {
                    Some(est) => match op {
                        CountOp::Exactly | CountOp::AtLeast => est >= *value as i64 - config.count_tolerance as i64,
                        CountOp::AtMost => true,
                    },
                    None => true,
                },
            },
            Predicate::Spatial { first, relation, second } => {
                let (Some(a), Some(b)) = (
                    estimate.binary_grid_for(first.class, threshold),
                    estimate.binary_grid_for(second.class, threshold),
                ) else {
                    return true;
                };
                let a = a.dilate(config.location_tolerance);
                let b = b.dilate(config.location_tolerance);
                relation.holds_grids(&a, &b)
            }
            Predicate::Region { object, region, min_count } => {
                let Some(grid) = estimate.binary_grid_for(object.class, threshold) else { return true };
                let Some(r) = query.catalog.get(region) else { return false };
                if *min_count == 0 {
                    return true;
                }
                !grid.dilate(config.location_tolerance).masked_by_region(&r).is_empty()
            }
        }
    }

    pub fn predicate_indicators(
        query: &Query,
        config: CascadeConfig,
        estimate: &FilterEstimate,
        threshold: f32,
    ) -> Vec<bool> {
        query.predicates.iter().map(|p| predicate_possible(query, config, p, estimate, threshold)).collect()
    }

    pub fn cv_indicators(query: &Query, config: CascadeConfig, estimate: &FilterEstimate, threshold: f32) -> Vec<f64> {
        let boolean = |b: bool| if b { 1.0 } else { 0.0 };
        let blend = |b: bool, score: f64| (boolean(b) + score) / 2.0;
        query
            .predicates
            .iter()
            .map(|p| match p {
                Predicate::Region { object, region, min_count } => {
                    let Some(grid) = estimate.binary_grid_for(object.class, threshold) else { return 1.0 };
                    let Some(r) = query.catalog.get(region) else { return 0.0 };
                    if *min_count == 0 {
                        return 1.0;
                    }
                    let occupied = grid.masked_by_region(&r).occupied();
                    blend(occupied >= *min_count as usize, (occupied as f64 / *min_count as f64).min(1.0))
                }
                Predicate::Spatial { first, relation, second } => {
                    let (Some(a), Some(b)) = (
                        estimate.binary_grid_for(first.class, threshold),
                        estimate.binary_grid_for(second.class, threshold),
                    ) else {
                        return 1.0;
                    };
                    let fraction = relation.pair_fraction(&a, &b);
                    blend(fraction > 0.0, fraction)
                }
                Predicate::Count { target, op: CountOp::Exactly, value } => {
                    let est = match target {
                        CountTarget::Total => Some((estimate.total_count(), estimate.total_count_rounded())),
                        CountTarget::Class(c) => estimate.count_for(*c).zip(estimate.count_for_rounded(*c)),
                        CountTarget::ClassColor(..) => None,
                    };
                    match est {
                        Some((est, rounded)) => {
                            let d = est as f64 - *value as f64;
                            blend(count_possible(config, CountOp::Exactly, rounded, *value as i64), 1.0 / (1.0 + d * d))
                        }
                        None => boolean(predicate_possible(query, config, p, estimate, threshold)),
                    }
                }
                other => boolean(predicate_possible(query, config, other, estimate, threshold)),
            })
            .collect()
    }
}

/// Grid sides: the 8/14/56 in use plus the 1×1, odd and full-word extremes.
const SIDES: [usize; 6] = [1, 5, 8, 14, 56, 64];
/// The estimate is trained for the first two; `Bus` stays untrained.
const CLASSES: [ObjectClass; 3] = [ObjectClass::Car, ObjectClass::Person, ObjectClass::Bus];
/// `nowhere` is not in the standard catalogue.
const REGIONS: [&str; 5] = ["full", "upper-left", "lower-right", "right-half", "nowhere"];

/// A finite estimate over `[Car, Person]` on a `g×g` grid whose last row and
/// column are always touched.
fn estimate_strategy() -> impl Strategy<Value = FilterEstimate> {
    let cells = || prop::collection::vec((0usize..64, 0usize..64, 0.0f32..1.0), 0..9);
    (0usize..SIDES.len(), -1.0f32..6.0, -1.0f32..6.0, cells(), cells(), (0u8..2, -1.0f32..9.0)).prop_map(
        |(side, cars, people, car_cells, person_cells, total_hint)| {
            let g = SIDES[side];
            let grid = |cells: &[(usize, usize, f32)], corner: f32| {
                let mut grid = ClassGrid::empty(g);
                grid.set(g - 1, g - 1, corner);
                for &(r, c, v) in cells {
                    grid.set(r % g, c % g, v);
                }
                grid
            };
            FilterEstimate {
                classes: CLASSES[..2].to_vec(),
                counts: vec![cars, people],
                grids: vec![grid(&car_cells, 0.9), grid(&person_cells, 0.4)],
                kind: FilterKind::Od,
                total_hint: (total_hint.0 == 1).then_some(total_hint.1),
            }
        },
    )
}

/// Every `Predicate` variant over trained and untrained classes, known and
/// unknown regions, and `min_count` from 0.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (0u8..3, 0usize..3, 0usize..3, 0usize..3, 0u32..4, 0usize..20).prop_map(|(kind, class, other, op, value, extra)| {
        let op = [CountOp::Exactly, CountOp::AtLeast, CountOp::AtMost][op];
        match kind {
            0 => {
                let target = match extra % 3 {
                    0 => CountTarget::Total,
                    1 => CountTarget::Class(CLASSES[class]),
                    _ => CountTarget::ClassColor(CLASSES[class], Color::Red),
                };
                Predicate::Count { target, op, value }
            }
            1 => Predicate::Spatial {
                first: ObjectRef::class(CLASSES[class]),
                relation: SpatialRelation::ALL[extra % 4],
                second: ObjectRef::class(CLASSES[other]),
            },
            _ => Predicate::Region {
                object: ObjectRef::class(CLASSES[class]),
                region: REGIONS[extra % REGIONS.len()].to_string(),
                min_count: value,
            },
        }
    })
}

fn query_strategy() -> impl Strategy<Value = (Query, CascadeConfig)> {
    (prop::collection::vec(predicate_strategy(), 0..5), 0u32..3, 0usize..3).prop_map(
        |(predicates, count_tolerance, location_tolerance)| {
            let mut query = Query::new("differential");
            query.predicates = predicates;
            (query, CascadeConfig { count_tolerance, location_tolerance })
        },
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `passes`, `pass_words`, `predicate_indicators` and (by `f64::to_bits`)
    /// `cv_indicators` of the compiled evaluator equal the naive reference —
    /// for each statement alone, and for all of them compiled into one
    /// shared table and evaluated over the whole batch at once.
    #[test]
    fn compiled_evaluator_equals_the_naive_reference(
        statements in prop::collection::vec(query_strategy(), 1..5),
        estimates in prop::collection::vec(estimate_strategy(), 1..4),
        threshold in 0.0f32..1.0,
    ) {
        let mut table = AtomTable::new();
        let compiled: Vec<_> = statements
            .iter()
            .map(|(query, config)| {
                (table.compile_select(query, *config, threshold), table.compile_indicators(query, *config, threshold))
            })
            .collect();
        let verdicts = table.evaluate(&estimates);

        let mut pass = Vec::new();
        for ((query, config), (atoms, indicators)) in statements.iter().zip(&compiled) {
            let cascade = FilterCascade::new(query.clone(), *config);
            verdicts.pass_words(atoms, &mut pass);
            for (frame, estimate) in estimates.iter().enumerate() {
                let expected = naive::predicate_indicators(query, *config, estimate, threshold);
                let expected_cv = naive::cv_indicators(query, *config, estimate, threshold);
                let context = format!("{:?} under {config:?} on {estimate:?} at {threshold}", query.predicates);

                prop_assert_eq!(cascade.predicate_indicators(estimate, threshold), expected.clone(), "{}", context);
                prop_assert_eq!(cascade.passes(estimate, threshold), expected.iter().all(|&p| p), "{}", context);
                prop_assert_eq!(bits(&cascade.cv_indicators(estimate, threshold)), bits(&expected_cv), "{}", context);

                let shared: Vec<bool> = atoms.iter().map(|&id| verdicts.atom(frame, id)).collect();
                let shared_cv: Vec<f64> = indicators.iter().map(|&id| verdicts.indicator(frame, id)).collect();
                prop_assert_eq!(shared, expected.clone(), "shared table: {}", context);
                prop_assert_eq!(pass[frame / 64] >> (frame % 64) & 1 == 1, expected.iter().all(|&p| p), "shared table: {}", context);
                prop_assert_eq!(bits(&shared_cv), bits(&expected_cv), "shared table: {}", context);
            }
        }
    }
}
