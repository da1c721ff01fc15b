//! Spatial relations between objects and screen regions.
//!
//! The paper adopts the categorisation of spatial constraints from spatial
//! databases (left/right/above/below and containment in screen regions); this
//! module evaluates them both on exact bounding boxes (for the final,
//! detector-based decision) and on thresholded filter grids (for the
//! approximate cascade decision).

use serde::{Deserialize, Serialize};
use vmq_filters::ClassGrid;
use vmq_video::BoundingBox;

/// A binary spatial relation between two objects, evaluated on the objects'
/// centre points (for boxes) or occupied cells (for grids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpatialRelation {
    /// The first object lies to the left of the second.
    LeftOf,
    /// The first object lies to the right of the second.
    RightOf,
    /// The first object lies above the second.
    Above,
    /// The first object lies below the second.
    Below,
}

impl SpatialRelation {
    /// All relations.
    pub const ALL: [SpatialRelation; 4] =
        [SpatialRelation::LeftOf, SpatialRelation::RightOf, SpatialRelation::Above, SpatialRelation::Below];

    /// The converse relation (`a R b` ⇔ `b converse(R) a`).
    pub fn converse(self) -> SpatialRelation {
        match self {
            SpatialRelation::LeftOf => SpatialRelation::RightOf,
            SpatialRelation::RightOf => SpatialRelation::LeftOf,
            SpatialRelation::Above => SpatialRelation::Below,
            SpatialRelation::Below => SpatialRelation::Above,
        }
    }

    /// Human-readable name matching the paper's `ORDER(a, b) = RIGHT` syntax
    /// (the name refers to where the *second* object is relative to the first
    /// in that syntax; here we name the relation of the first to the second).
    pub fn name(self) -> &'static str {
        match self {
            SpatialRelation::LeftOf => "left-of",
            SpatialRelation::RightOf => "right-of",
            SpatialRelation::Above => "above",
            SpatialRelation::Below => "below",
        }
    }

    /// Evaluates the relation on two bounding boxes (centre-point semantics).
    pub fn holds_boxes(self, a: &BoundingBox, b: &BoundingBox) -> bool {
        match self {
            SpatialRelation::LeftOf => a.left_of(b),
            SpatialRelation::RightOf => b.left_of(a),
            SpatialRelation::Above => a.above(b),
            SpatialRelation::Below => b.above(a),
        }
    }

    /// Evaluates the relation on two occupancy grids: true when *some*
    /// occupied cell of `a` stands in the relation to *some* occupied cell of
    /// `b` (existential semantics, matching the per-pair box evaluation).
    /// The cascade decides this from column/row extents of bit-packed grids
    /// ([`AtomTable`](crate::plan::AtomTable)); this scan is its reference.
    pub fn holds_grids(self, a: &ClassGrid, b: &ClassGrid) -> bool {
        match self {
            SpatialRelation::LeftOf => a.any_left_of(b),
            SpatialRelation::RightOf => b.any_left_of(a),
            SpatialRelation::Above => a.any_above(b),
            SpatialRelation::Below => b.any_above(a),
        }
    }

    /// Evaluates the relation over two sets of boxes: true when some pair
    /// `(a, b)` satisfies it.
    pub fn holds_any_pair(self, first: &[BoundingBox], second: &[BoundingBox]) -> bool {
        first.iter().any(|a| second.iter().any(|b| self.holds_boxes(a, b)))
    }

    /// Reduces the relation to "index(x) < index(y)" along one axis:
    /// returns `(x, y, by_col)` with the operands swapped for the converse
    /// relations and `by_col` telling whether the index is the column.
    pub(crate) fn ordered<T>(self, a: T, b: T) -> (T, T, bool) {
        match self {
            SpatialRelation::LeftOf => (a, b, true),
            SpatialRelation::RightOf => (b, a, true),
            SpatialRelation::Above => (a, b, false),
            SpatialRelation::Below => (b, a, false),
        }
    }

    /// Graded grid evaluation for control variates: the fraction of occupied
    /// cell pairs `(a, b)` standing in the relation, in `[0, 1]`. Strictly
    /// positive exactly when [`SpatialRelation::holds_grids`] is true, but
    /// continuous in how *robustly* the configuration satisfies the relation
    /// — on a busy scene where some pair nearly always exists, the boolean
    /// is a constant (a dead control) while this fraction still varies with
    /// the layout and keeps its correlation with the detector verdict. (The
    /// reference for the indicator [`AtomTable`](crate::plan::AtomTable)
    /// computes from bit-packed grids.)
    pub fn pair_fraction(self, a: &ClassGrid, b: &ClassGrid) -> f64 {
        let (x, y, by_col) = self.ordered(a, b);
        assert_eq!(x.size(), y.size(), "grid size mismatch");
        let g = x.size();
        let mut hx = vec![0u64; g];
        let mut hy = vec![0u64; g];
        for (r, c) in x.occupied_cells() {
            hx[if by_col { c } else { r }] += 1;
        }
        for (r, c) in y.occupied_cells() {
            hy[if by_col { c } else { r }] += 1;
        }
        let (tx, ty) = (hx.iter().sum::<u64>(), hy.iter().sum::<u64>());
        if tx == 0 || ty == 0 {
            return 0.0;
        }
        let mut pairs = 0u64;
        let mut x_before = 0u64;
        for i in 0..g {
            if i > 0 {
                x_before += hx[i - 1];
            }
            pairs += x_before * hy[i];
        }
        pairs as f64 / (tx as f64 * ty as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cx: f32, cy: f32) -> BoundingBox {
        BoundingBox::from_center(cx, cy, 0.1, 0.1)
    }

    #[test]
    fn box_relations() {
        let l = at(0.2, 0.5);
        let r = at(0.8, 0.5);
        assert!(SpatialRelation::LeftOf.holds_boxes(&l, &r));
        assert!(!SpatialRelation::LeftOf.holds_boxes(&r, &l));
        assert!(SpatialRelation::RightOf.holds_boxes(&r, &l));
        let t = at(0.5, 0.2);
        let b = at(0.5, 0.8);
        assert!(SpatialRelation::Above.holds_boxes(&t, &b));
        assert!(SpatialRelation::Below.holds_boxes(&b, &t));
    }

    #[test]
    fn converse_is_involutive_and_consistent() {
        for rel in SpatialRelation::ALL {
            assert_eq!(rel.converse().converse(), rel);
        }
        let a = at(0.3, 0.3);
        let b = at(0.7, 0.7);
        for rel in SpatialRelation::ALL {
            assert_eq!(rel.holds_boxes(&a, &b), rel.converse().holds_boxes(&b, &a));
        }
    }

    #[test]
    fn grid_relations() {
        let left = ClassGrid::from_boxes(8, &[at(0.2, 0.5)]);
        let right = ClassGrid::from_boxes(8, &[at(0.8, 0.5)]);
        assert!(SpatialRelation::LeftOf.holds_grids(&left, &right));
        assert!(SpatialRelation::RightOf.holds_grids(&right, &left));
        assert!(!SpatialRelation::LeftOf.holds_grids(&right, &left));
        // empty grids never satisfy a relation
        let empty = ClassGrid::empty(8);
        assert!(!SpatialRelation::LeftOf.holds_grids(&empty, &right));
    }

    #[test]
    fn any_pair_semantics() {
        let firsts = vec![at(0.9, 0.5), at(0.1, 0.5)];
        let seconds = vec![at(0.5, 0.5)];
        // one of the firsts is left of the second
        assert!(SpatialRelation::LeftOf.holds_any_pair(&firsts, &seconds));
        assert!(SpatialRelation::RightOf.holds_any_pair(&firsts, &seconds));
        assert!(!SpatialRelation::LeftOf.holds_any_pair(&[], &seconds));
    }

    #[test]
    fn names() {
        assert_eq!(SpatialRelation::LeftOf.name(), "left-of");
        assert_eq!(SpatialRelation::Below.name(), "below");
    }
}
