//! Query representation and exact (ground-truth) evaluation.
//!
//! A [`Query`] is a conjunction of predicates over the objects detected in a
//! frame: count predicates (total / per class / per class-and-colour),
//! spatial predicates between object classes and screen-region predicates.
//! The named constructors `paper_q1` … `paper_q7` and `paper_a1` … `paper_a5`
//! reproduce the exact queries of Sec. IV-B and IV-C.

use crate::catalog::RegionCatalog;
use crate::spatial::SpatialRelation;
use serde::{Deserialize, Serialize};
use vmq_detect::FrameDetections;
use vmq_video::{BoundingBox, Color, Frame, ObjectClass};

/// What a count predicate counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountTarget {
    /// All objects regardless of class.
    Total,
    /// Objects of one class.
    Class(ObjectClass),
    /// Objects of one class with a specific colour attribute.
    ClassColor(ObjectClass, Color),
}

/// Comparison operator of a count predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountOp {
    /// Count must equal the value exactly.
    Exactly,
    /// Count must be greater than or equal to the value.
    AtLeast,
    /// Count must be less than or equal to the value.
    AtMost,
}

impl CountOp {
    /// Applies the operator.
    pub fn holds(self, count: i64, value: i64) -> bool {
        match self {
            CountOp::Exactly => count == value,
            CountOp::AtLeast => count >= value,
            CountOp::AtMost => count <= value,
        }
    }
}

/// A reference to an object kind inside a predicate: a class, optionally
/// restricted to a colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectRef {
    /// The object class.
    pub class: ObjectClass,
    /// Optional colour restriction.
    pub color: Option<Color>,
}

impl ObjectRef {
    /// A reference to any object of the class.
    pub fn class(class: ObjectClass) -> Self {
        ObjectRef { class, color: None }
    }

    /// A reference to objects of the class with a specific colour.
    pub fn colored(class: ObjectClass, color: Color) -> Self {
        ObjectRef { class, color: Some(color) }
    }
}

/// A single query predicate; a query is a conjunction of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Constrains an object count.
    Count {
        /// What is being counted.
        target: CountTarget,
        /// Comparison operator.
        op: CountOp,
        /// Comparison value.
        value: u32,
    },
    /// Constrains the spatial relation between two object kinds.
    Spatial {
        /// The first object kind.
        first: ObjectRef,
        /// The relation of the first to the second.
        relation: SpatialRelation,
        /// The second object kind.
        second: ObjectRef,
    },
    /// Requires at least `min_count` objects of a kind inside a named region.
    Region {
        /// The object kind.
        object: ObjectRef,
        /// Name of the region in the query's catalogue.
        region: String,
        /// Minimum number of such objects inside the region.
        min_count: u32,
    },
}

impl Predicate {
    /// The region box this predicate's verdict depends on: a region
    /// predicate's name resolved against `catalog` (`None` for a name the
    /// catalogue does not know), `None` for every other kind.
    fn region_box(&self, catalog: &RegionCatalog) -> Option<BoundingBox> {
        match self {
            Predicate::Region { region, .. } => catalog.get(region),
            _ => None,
        }
    }

    /// The one exact evaluator: the predicate over a frame's objects as
    /// `(class, colour, box)`, walked in place (the iterator is cloned for
    /// each pair loop) — no box list is collected. `region` is the
    /// predicate's [`Predicate::region_box`].
    fn holds<I>(&self, region: Option<BoundingBox>, objects: I) -> bool
    where
        I: Iterator<Item = (ObjectClass, Option<Color>, BoundingBox)> + Clone,
    {
        let boxes_of = |obj: &ObjectRef| {
            let obj = *obj;
            objects
                .clone()
                .filter(move |&(class, color, _)| class == obj.class && (obj.color.is_none() || color == obj.color))
                .map(|(_, _, bbox)| bbox)
        };
        match self {
            Predicate::Count { target, op, value } => {
                let count = match *target {
                    CountTarget::Total => objects.clone().count(),
                    CountTarget::Class(c) => objects.clone().filter(|&(class, _, _)| class == c).count(),
                    CountTarget::ClassColor(c, col) => {
                        objects.clone().filter(|&(class, color, _)| class == c && color == Some(col)).count()
                    }
                };
                op.holds(count as i64, *value as i64)
            }
            Predicate::Spatial { first, relation, second } => {
                boxes_of(first).any(|a| boxes_of(second).any(|b| relation.holds_boxes(&a, &b)))
            }
            // An object is "in" a screen region when its bounding box
            // overlaps the region (the usual surveillance semantics for "car
            // in the bike lane" / "person in the quadrant"); no frame
            // satisfies an unknown region.
            Predicate::Region { object, min_count, .. } => {
                region.is_some_and(|r| boxes_of(object).filter(|b| b.intersects(&r)).count() >= *min_count as usize)
            }
        }
    }
}

/// Every distinct exact predicate of the statements registered on one plan,
/// keyed by the predicate plus its resolved region box: two catalogues can
/// give one region name different boxes.
///
/// Registration compiles a statement's predicates to ids
/// ([`ExactTable::compile`]); per detected frame each id is evaluated at most
/// once however many statements share it, and a statement's truth is the AND
/// over its ids in declaration order ([`ExactTable::matches`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactTable {
    predicates: Vec<(Predicate, Option<BoundingBox>)>,
}

impl ExactTable {
    /// Interns `query`'s predicates: one id per predicate, in declaration
    /// order.
    pub(crate) fn compile(&mut self, query: &Query) -> Box<[u32]> {
        query
            .predicates
            .iter()
            .map(|p| crate::plan::intern(&mut self.predicates, (p.clone(), p.region_box(&query.catalog))))
            .collect()
    }

    /// A cleared per-frame verdict memo, one slot per interned predicate.
    pub(crate) fn memo(&self) -> Vec<Option<bool>> {
        vec![None; self.predicates.len()]
    }

    /// The statement compiled to `ids`, evaluated exactly on `detections`:
    /// each id's verdict is read from `memo` or evaluated once and stored
    /// there. `memo` must be cleared (every slot `None`) between frames.
    pub(crate) fn matches(&self, ids: &[u32], detections: &FrameDetections, memo: &mut [Option<bool>]) -> bool {
        let objects = detections.detections.iter().map(|d| (d.class, d.color, d.bbox));
        ids.iter().all(|&id| {
            let (predicate, region) = &self.predicates[id as usize];
            *memo[id as usize].get_or_insert_with(|| predicate.holds(*region, objects.clone()))
        })
    }
}

/// A continuous monitoring query: a named conjunction of predicates plus a
/// region catalogue resolving region names.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    /// Query name (used in reports).
    pub name: String,
    /// Conjunctive predicates.
    pub predicates: Vec<Predicate>,
    /// Region catalogue used by region predicates.
    pub catalog: RegionCatalog,
}

impl Query {
    /// Creates an empty query with the standard region catalogue.
    pub fn new(name: &str) -> Self {
        Query { name: name.to_string(), predicates: Vec::new(), catalog: RegionCatalog::standard() }
    }

    /// Adds a count predicate on the total number of objects.
    pub fn total_count(mut self, op: CountOp, value: u32) -> Self {
        self.predicates.push(Predicate::Count { target: CountTarget::Total, op, value });
        self
    }

    /// Adds a count predicate on a class.
    pub fn class_count(mut self, class: ObjectClass, op: CountOp, value: u32) -> Self {
        self.predicates.push(Predicate::Count { target: CountTarget::Class(class), op, value });
        self
    }

    /// Adds a count predicate on a class with a colour attribute.
    pub fn colored_count(mut self, class: ObjectClass, color: Color, op: CountOp, value: u32) -> Self {
        self.predicates.push(Predicate::Count { target: CountTarget::ClassColor(class, color), op, value });
        self
    }

    /// Adds a spatial predicate between two object kinds.
    pub fn spatial(mut self, first: ObjectRef, relation: SpatialRelation, second: ObjectRef) -> Self {
        self.predicates.push(Predicate::Spatial { first, relation, second });
        self
    }

    /// Adds a region predicate.
    pub fn in_region(mut self, object: ObjectRef, region: &str, min_count: u32) -> Self {
        self.predicates.push(Predicate::Region { object, region: region.to_string(), min_count });
        self
    }

    /// Replaces the region catalogue.
    pub fn with_catalog(mut self, catalog: RegionCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Classes mentioned anywhere in the query (deduplicated).
    pub fn classes(&self) -> Vec<ObjectClass> {
        let mut out = Vec::new();
        let mut push = |c: ObjectClass| {
            if !out.contains(&c) {
                out.push(c);
            }
        };
        for p in &self.predicates {
            match p {
                Predicate::Count { target, .. } => match target {
                    CountTarget::Total => {}
                    CountTarget::Class(c) | CountTarget::ClassColor(c, _) => push(*c),
                },
                Predicate::Spatial { first, second, .. } => {
                    push(first.class);
                    push(second.class);
                }
                Predicate::Region { object, .. } => push(object.class),
            }
        }
        out
    }

    /// True when the query contains at least one spatial or region predicate.
    pub fn has_spatial_constraints(&self) -> bool {
        self.predicates.iter().any(|p| matches!(p, Predicate::Spatial { .. } | Predicate::Region { .. }))
    }

    /// Evaluates the query exactly against a set of detections.
    pub fn matches_detections(&self, detections: &FrameDetections) -> bool {
        self.matches_objects(detections.detections.iter().map(|d| (d.class, d.color, d.bbox)))
    }

    /// Evaluates the query exactly against a frame's ground-truth objects
    /// (used to establish the true answer set for accuracy measurements).
    pub fn matches_ground_truth(&self, frame: &Frame) -> bool {
        self.matches_objects(frame.objects.iter().map(|o| (o.class, Some(o.color), o.bbox)))
    }

    /// Every predicate over the frame's objects as `(class, colour, box)`,
    /// region names resolved against the query's catalogue.
    fn matches_objects<I>(&self, objects: I) -> bool
    where
        I: Iterator<Item = (ObjectClass, Option<Color>, BoundingBox)> + Clone,
    {
        self.predicates.iter().all(|p| p.holds(p.region_box(&self.catalog), objects.clone()))
    }

    // ----- the named queries of Sec. IV-B (Table III) -----

    /// q1 (Coral): frames with exactly two people.
    pub fn paper_q1() -> Self {
        Query::new("q1").class_count(ObjectClass::Person, CountOp::Exactly, 2)
    }

    /// q2 (Coral): frames with two people in the lower-left quadrant.
    pub fn paper_q2() -> Self {
        Query::new("q2").in_region(ObjectRef::class(ObjectClass::Person), "lower-left", 2)
    }

    /// q3 (Jackson): exactly one car and exactly one person.
    pub fn paper_q3() -> Self {
        Query::new("q3").class_count(ObjectClass::Car, CountOp::Exactly, 1).class_count(
            ObjectClass::Person,
            CountOp::Exactly,
            1,
        )
    }

    /// q4 (Jackson): at least one car and at least one person.
    pub fn paper_q4() -> Self {
        Query::new("q4").class_count(ObjectClass::Car, CountOp::AtLeast, 1).class_count(
            ObjectClass::Person,
            CountOp::AtLeast,
            1,
        )
    }

    /// q5 (Jackson): exactly one car, exactly one person, car left of person.
    pub fn paper_q5() -> Self {
        Query::paper_q3()
            .spatial(ObjectRef::class(ObjectClass::Car), SpatialRelation::LeftOf, ObjectRef::class(ObjectClass::Person))
            .renamed("q5")
    }

    /// q6 (Detrac): exactly one car and exactly one bus.
    pub fn paper_q6() -> Self {
        Query::new("q6").class_count(ObjectClass::Car, CountOp::Exactly, 1).class_count(
            ObjectClass::Bus,
            CountOp::Exactly,
            1,
        )
    }

    /// q7 (Detrac): exactly one car, exactly one bus, car left of bus.
    pub fn paper_q7() -> Self {
        Query::paper_q6()
            .spatial(ObjectRef::class(ObjectClass::Car), SpatialRelation::LeftOf, ObjectRef::class(ObjectClass::Bus))
            .renamed("q7")
    }

    // ----- the aggregate queries of Sec. IV-C (Table IV); each defines the
    //       per-frame predicate whose frequency is estimated -----

    /// a1 (Jackson): a car in the lower-right quadrant.
    pub fn paper_a1() -> Self {
        Query::new("a1").in_region(ObjectRef::class(ObjectClass::Car), "lower-right", 1)
    }

    /// a2 (Jackson): a car to the left of a person.
    pub fn paper_a2() -> Self {
        Query::new("a2").spatial(
            ObjectRef::class(ObjectClass::Car),
            SpatialRelation::LeftOf,
            ObjectRef::class(ObjectClass::Person),
        )
    }

    /// a3 (Detrac): three objects, with a car in the lower-left quadrant and a
    /// bus in the upper-left quadrant.
    pub fn paper_a3() -> Self {
        Query::new("a3")
            .total_count(CountOp::Exactly, 3)
            .in_region(ObjectRef::class(ObjectClass::Car), "lower-left", 1)
            .in_region(ObjectRef::class(ObjectClass::Bus), "upper-left", 1)
    }

    /// a4 (Detrac): a car to the left of a bus.
    pub fn paper_a4() -> Self {
        Query::new("a4").spatial(
            ObjectRef::class(ObjectClass::Car),
            SpatialRelation::LeftOf,
            ObjectRef::class(ObjectClass::Bus),
        )
    }

    /// a5 (Coral): three people with at least two in the lower-left quadrant.
    pub fn paper_a5() -> Self {
        Query::new("a5").class_count(ObjectClass::Person, CountOp::Exactly, 3).in_region(
            ObjectRef::class(ObjectClass::Person),
            "lower-left",
            2,
        )
    }

    fn renamed(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_video::SceneObject;

    fn obj(class: ObjectClass, color: Color, cx: f32, cy: f32, id: u64) -> SceneObject {
        SceneObject {
            track_id: id,
            class,
            color,
            bbox: BoundingBox::from_center(cx, cy, 0.1, 0.1),
            velocity: (0.0, 0.0),
        }
    }

    fn frame(objects: Vec<SceneObject>) -> Frame {
        Frame { camera_id: 0, frame_id: 0, timestamp: 0.0, objects }
    }

    #[test]
    fn count_op_semantics() {
        assert!(CountOp::Exactly.holds(2, 2));
        assert!(!CountOp::Exactly.holds(3, 2));
        assert!(CountOp::AtLeast.holds(3, 2));
        assert!(!CountOp::AtLeast.holds(1, 2));
        assert!(CountOp::AtMost.holds(1, 2));
        assert!(!CountOp::AtMost.holds(3, 2));
    }

    #[test]
    fn class_count_predicate() {
        let q = Query::paper_q3();
        let yes = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.3, 0.5, 1),
            obj(ObjectClass::Person, Color::Blue, 0.7, 0.5, 2),
        ]);
        let no_extra_car = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.3, 0.5, 1),
            obj(ObjectClass::Car, Color::Blue, 0.5, 0.5, 2),
            obj(ObjectClass::Person, Color::Blue, 0.7, 0.5, 3),
        ]);
        assert!(q.matches_ground_truth(&yes));
        assert!(!q.matches_ground_truth(&no_extra_car));
    }

    #[test]
    fn at_least_predicate_q4() {
        let q = Query::paper_q4();
        let two_cars = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.3, 0.5, 1),
            obj(ObjectClass::Car, Color::Blue, 0.5, 0.5, 2),
            obj(ObjectClass::Person, Color::Blue, 0.7, 0.5, 3),
        ]);
        assert!(q.matches_ground_truth(&two_cars));
        let no_person = frame(vec![obj(ObjectClass::Car, Color::Red, 0.3, 0.5, 1)]);
        assert!(!q.matches_ground_truth(&no_person));
    }

    #[test]
    fn spatial_predicate_q5() {
        let q = Query::paper_q5();
        let car_left = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.2, 0.5, 1),
            obj(ObjectClass::Person, Color::Blue, 0.8, 0.5, 2),
        ]);
        let car_right = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.8, 0.5, 1),
            obj(ObjectClass::Person, Color::Blue, 0.2, 0.5, 2),
        ]);
        assert!(q.matches_ground_truth(&car_left));
        assert!(!q.matches_ground_truth(&car_right));
        assert!(q.has_spatial_constraints());
        assert!(!Query::paper_q3().has_spatial_constraints());
    }

    #[test]
    fn region_predicate_q2() {
        let q = Query::paper_q2();
        let in_quad = frame(vec![
            obj(ObjectClass::Person, Color::Blue, 0.2, 0.8, 1),
            obj(ObjectClass::Person, Color::Green, 0.3, 0.7, 2),
        ]);
        let spread = frame(vec![
            obj(ObjectClass::Person, Color::Blue, 0.2, 0.8, 1),
            obj(ObjectClass::Person, Color::Green, 0.8, 0.2, 2),
        ]);
        assert!(q.matches_ground_truth(&in_quad));
        assert!(!q.matches_ground_truth(&spread));
    }

    #[test]
    fn colored_count_predicate() {
        let q = Query::new("red-car").colored_count(ObjectClass::Car, Color::Red, CountOp::AtLeast, 1);
        let red = frame(vec![obj(ObjectClass::Car, Color::Red, 0.5, 0.5, 1)]);
        let blue = frame(vec![obj(ObjectClass::Car, Color::Blue, 0.5, 0.5, 1)]);
        assert!(q.matches_ground_truth(&red));
        assert!(!q.matches_ground_truth(&blue));
    }

    #[test]
    fn unknown_region_never_matches() {
        let q = Query::new("bad").in_region(ObjectRef::class(ObjectClass::Car), "no-such-region", 1);
        let f = frame(vec![obj(ObjectClass::Car, Color::Red, 0.5, 0.5, 1)]);
        assert!(!q.matches_ground_truth(&f));
    }

    #[test]
    fn classes_are_collected() {
        let q = Query::paper_q7();
        let classes = q.classes();
        assert!(classes.contains(&ObjectClass::Car));
        assert!(classes.contains(&ObjectClass::Bus));
        assert_eq!(classes.len(), 2);
        assert_eq!(Query::paper_a3().classes().len(), 2);
    }

    #[test]
    fn paper_query_names() {
        assert_eq!(Query::paper_q1().name, "q1");
        assert_eq!(Query::paper_q5().name, "q5");
        assert_eq!(Query::paper_q7().name, "q7");
        assert_eq!(Query::paper_a5().name, "a5");
    }

    #[test]
    fn total_count_predicate_a3() {
        let q = Query::paper_a3();
        let f = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.2, 0.8, 1),
            obj(ObjectClass::Bus, Color::White, 0.2, 0.2, 2),
            obj(ObjectClass::Car, Color::Blue, 0.8, 0.8, 3),
        ]);
        assert!(q.matches_ground_truth(&f));
        let f4 = frame(vec![
            obj(ObjectClass::Car, Color::Red, 0.2, 0.8, 1),
            obj(ObjectClass::Bus, Color::White, 0.2, 0.2, 2),
            obj(ObjectClass::Car, Color::Blue, 0.8, 0.8, 3),
            obj(ObjectClass::Car, Color::Blue, 0.6, 0.6, 4),
        ]);
        assert!(!q.matches_ground_truth(&f4), "total count must be exactly 3");
    }
}
