//! A q3/q5-shaped statement family whose members share predicates, so a
//! plan holding several of them shares atoms.

use vmq::query::ast::CountOp;
use vmq::query::{ObjectRef, Query, SpatialRelation};
use vmq::video::ObjectClass::{Car, Person};

/// A q3/q5-shaped family whose members overlap atom by atom: every pairing
/// of two car-count and two person-count predicates, alone or with one of
/// four spatial predicates — 20 statements over 8 distinct predicates.
pub fn overlapping_family() -> Vec<Query> {
    let mut family = Vec::new();
    for (car_op, cars) in [(CountOp::Exactly, 1), (CountOp::AtMost, 1)] {
        for (person_op, people) in [(CountOp::AtLeast, 1), (CountOp::AtMost, 2)] {
            let base =
                |name: String| Query::new(&name).class_count(Car, car_op, cars).class_count(Person, person_op, people);
            let tag = format!("fam-{car_op:?}{cars}-{person_op:?}{people}");
            family.push(base(tag.clone()));
            family.push(base(format!("{tag}-left")).spatial(
                ObjectRef::class(Car),
                SpatialRelation::LeftOf,
                ObjectRef::class(Person),
            ));
            family.push(base(format!("{tag}-above")).spatial(
                ObjectRef::class(Car),
                SpatialRelation::Above,
                ObjectRef::class(Person),
            ));
            family.push(base(format!("{tag}-car-lr")).in_region(ObjectRef::class(Car), "lower-right", 1));
            family.push(base(format!("{tag}-person-ul")).in_region(ObjectRef::class(Person), "upper-left", 1));
        }
    }
    family
}
