//! Occupancy grids: the `g×g` localisation maps the CLF filters operate on.
//!
//! The paper down-scales Mask R-CNN bounding boxes to a `g×g` grid to produce
//! ground-truth location maps (Sec. II-A, II-B), thresholds predicted
//! activation maps to binary occupancy grids, and evaluates spatial
//! constraints on those grids. [`ClassGrid`] implements all of that.

use serde::{Deserialize, Serialize};
use vmq_video::BoundingBox;

/// A square occupancy grid for one object class.
///
/// Cell `(row, col)` covers the image region
/// `[col/g, (col+1)/g) × [row/g, (row+1)/g)` in normalised coordinates.
/// Values are probabilities in `[0, 1]`; a *binary* grid uses exactly 0 / 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassGrid {
    g: usize,
    cells: Vec<f32>,
}

impl ClassGrid {
    /// An empty (all-zero) grid of side `g`.
    pub fn empty(g: usize) -> Self {
        assert!(g > 0, "grid size must be positive");
        ClassGrid { g, cells: vec![0.0; g * g] }
    }

    /// Builds a grid from raw values in row-major order.
    pub fn from_values(g: usize, cells: Vec<f32>) -> Self {
        assert_eq!(cells.len(), g * g, "expected {} cells, got {}", g * g, cells.len());
        ClassGrid { g, cells }
    }

    /// Builds the ground-truth occupancy grid for a set of boxes: every cell
    /// whose rectangle overlaps any box is set to 1 (this is the
    /// "down-scaling of bounding boxes" described in Sec. II-A). Every
    /// non-degenerate box marks at least one cell.
    pub fn from_boxes(g: usize, boxes: &[BoundingBox]) -> Self {
        let mut grid = ClassGrid::empty(g);
        for b in boxes {
            grid.mark(b);
        }
        grid
    }

    /// Sets to 1 every cell whose rectangle overlaps `b` by
    /// [`BoundingBox::intersects`]. Overlap is separable, so the marked cells
    /// are the product of a column span and a row span, each found in one
    /// pass along its axis instead of testing all `g²` cells.
    pub(crate) fn mark(&mut self, b: &BoundingBox) {
        let cols = Self::span(self.g, b.x, b.right());
        for row in Self::span(self.g, b.y, b.bottom()) {
            self.cells[row * self.g..][cols.clone()].fill(1.0);
        }
    }

    /// Raw cell values in row-major order, writable.
    pub(crate) fn cells_mut(&mut self) -> &mut [f32] {
        &mut self.cells
    }

    /// The cells along one axis that the extent `[lo, hi)` overlaps: cell
    /// `i` spans `[i as f32 / g as f32, that + 1.0 / g as f32)`, computed and
    /// compared exactly as [`BoundingBox::intersects`] does against that
    /// cell's rectangle. Both edges grow with `i`, so the overlapping cells
    /// are one run; a NaN edge overlaps nothing.
    fn span(g: usize, lo: f32, hi: f32) -> std::ops::Range<usize> {
        let side = 1.0 / g as f32;
        let edge = |i: usize| i as f32 / g as f32;
        let first = (0..g).position(|i| lo < edge(i) + side).unwrap_or(g);
        let end = first + (first..g).take_while(|&i| edge(i) < hi).count();
        first..end
    }

    /// Grid side length.
    pub fn size(&self) -> usize {
        self.g
    }

    /// Raw cell values in row-major order.
    pub fn cells(&self) -> &[f32] {
        &self.cells
    }

    /// Value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.cells[row * self.g + col]
    }

    /// Sets the value at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.cells[row * self.g + col] = value;
    }

    /// Number of cells with value above 0.5 (occupied cells of a binary grid).
    pub fn occupied(&self) -> usize {
        self.cells.iter().filter(|&&v| v > 0.5).count()
    }

    /// True when no cell is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied() == 0
    }

    /// Thresholds the grid into a binary occupancy grid (the paper uses a
    /// threshold of 0.2 for OD grids, Sec. IV).
    pub fn threshold(&self, t: f32) -> ClassGrid {
        ClassGrid { g: self.g, cells: self.cells.iter().map(|&v| if v >= t { 1.0 } else { 0.0 }).collect() }
    }

    /// Coordinates `(row, col)` of all occupied cells.
    pub fn occupied_cells(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for row in 0..self.g {
            for col in 0..self.g {
                if self.get(row, col) > 0.5 {
                    out.push((row, col));
                }
            }
        }
        out
    }

    /// Restricts the grid to a screen region, zeroing cells whose rectangles
    /// do not overlap the region (used for "object inside screen area"
    /// predicates; overlap semantics match the exact query evaluation).
    pub fn masked_by_region(&self, region: &BoundingBox) -> ClassGrid {
        let mut out = self.clone();
        for row in 0..self.g {
            for col in 0..self.g {
                let cell = BoundingBox {
                    x: col as f32 / self.g as f32,
                    y: row as f32 / self.g as f32,
                    w: 1.0 / self.g as f32,
                    h: 1.0 / self.g as f32,
                };
                if !region.intersects(&cell) {
                    out.set(row, col, 0.0);
                }
            }
        }
        out
    }

    /// True when any occupied cell of `self` lies strictly to the left of any
    /// occupied cell of `other` (column-wise comparison of cell centres).
    pub fn any_left_of(&self, other: &ClassGrid) -> bool {
        assert_eq!(self.g, other.g, "grid size mismatch");
        let my_min_col = self.occupied_cells().iter().map(|&(_, c)| c).min();
        let their_max_col = other.occupied_cells().iter().map(|&(_, c)| c).max();
        match (my_min_col, their_max_col) {
            (Some(a), Some(b)) => a < b,
            _ => false,
        }
    }

    /// True when any occupied cell of `self` lies strictly above any occupied
    /// cell of `other`.
    pub fn any_above(&self, other: &ClassGrid) -> bool {
        assert_eq!(self.g, other.g, "grid size mismatch");
        let my_min_row = self.occupied_cells().iter().map(|&(r, _)| r).min();
        let their_max_row = other.occupied_cells().iter().map(|&(r, _)| r).max();
        match (my_min_row, their_max_row) {
            (Some(a), Some(b)) => a < b,
            _ => false,
        }
    }

    /// Morphological dilation: occupies every cell within Manhattan distance
    /// `d` of an occupied cell. Used by query evaluation to apply the same
    /// location tolerance as the CLF-1 / CLF-2 filters.
    pub fn dilate(&self, d: usize) -> ClassGrid {
        if d == 0 {
            return self.clone();
        }
        let occupied = self.occupied_cells();
        let mut out = ClassGrid::empty(self.g);
        for row in 0..self.g {
            for col in 0..self.g {
                if occupied.iter().any(|&c| Self::manhattan(c, (row, col)) <= d) {
                    out.set(row, col, 1.0);
                }
            }
        }
        out
    }

    /// Manhattan distance between two cells.
    pub fn manhattan(a: (usize, usize), b: (usize, usize)) -> usize {
        a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    }

    /// True when an occupied cell exists within Manhattan distance `d` of the
    /// given cell (used by the CLF-1 / CLF-2 metrics of Sec. IV-A).
    pub fn occupied_within(&self, cell: (usize, usize), d: usize) -> bool {
        self.occupied_cells().iter().any(|&c| Self::manhattan(c, cell) <= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid() {
        let g = ClassGrid::empty(4);
        assert_eq!(g.size(), 4);
        assert_eq!(g.occupied(), 0);
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "grid size must be positive")]
    fn zero_size_rejected() {
        let _ = ClassGrid::empty(0);
    }

    #[test]
    fn from_boxes_marks_covered_cells() {
        // Box covering the left half of the frame on an 8x8 grid.
        let b = BoundingBox::new(0.0, 0.0, 0.5, 1.0);
        let grid = ClassGrid::from_boxes(8, &[b]);
        assert_eq!(grid.occupied(), 8 * 4);
        assert!(grid.get(0, 0) > 0.5);
        assert!(grid.get(0, 7) < 0.5);
    }

    #[test]
    fn from_boxes_empty_when_no_boxes() {
        assert!(ClassGrid::from_boxes(8, &[]).is_empty());
    }

    #[test]
    fn threshold_binarises() {
        let grid = ClassGrid::from_values(2, vec![0.1, 0.3, 0.6, 0.9]);
        let t = grid.threshold(0.5);
        assert_eq!(t.cells(), &[0.0, 0.0, 1.0, 1.0]);
        let t2 = grid.threshold(0.2);
        assert_eq!(t2.occupied(), 3);
    }

    #[test]
    fn occupied_cells_positions() {
        let mut grid = ClassGrid::empty(3);
        grid.set(0, 2, 1.0);
        grid.set(2, 1, 1.0);
        assert_eq!(grid.occupied_cells(), vec![(0, 2), (2, 1)]);
    }

    #[test]
    fn region_mask_keeps_only_inside() {
        // Object in the right half, region = left half -> masked away.
        let grid = ClassGrid::from_boxes(8, &[BoundingBox::new(0.7, 0.4, 0.2, 0.2)]);
        assert!(!grid.is_empty());
        let left = BoundingBox::new(0.0, 0.0, 0.5, 1.0);
        assert!(grid.masked_by_region(&left).is_empty());
        let right = BoundingBox::new(0.5, 0.0, 0.5, 1.0);
        assert_eq!(grid.masked_by_region(&right).occupied(), grid.occupied());
    }

    #[test]
    fn left_of_and_above_relations() {
        let left = ClassGrid::from_boxes(8, &[BoundingBox::new(0.05, 0.4, 0.15, 0.2)]);
        let right = ClassGrid::from_boxes(8, &[BoundingBox::new(0.7, 0.4, 0.2, 0.2)]);
        assert!(left.any_left_of(&right));
        assert!(!right.any_left_of(&left));
        let top = ClassGrid::from_boxes(8, &[BoundingBox::new(0.4, 0.05, 0.2, 0.15)]);
        let bottom = ClassGrid::from_boxes(8, &[BoundingBox::new(0.4, 0.7, 0.2, 0.2)]);
        assert!(top.any_above(&bottom));
        assert!(!bottom.any_above(&top));
        // Relations with an empty grid are false.
        let empty = ClassGrid::empty(8);
        assert!(!empty.any_left_of(&right));
        assert!(!left.any_left_of(&empty));
    }

    #[test]
    fn dilation_grows_occupancy() {
        let mut grid = ClassGrid::empty(5);
        grid.set(2, 2, 1.0);
        assert_eq!(grid.dilate(0).occupied(), 1);
        assert_eq!(grid.dilate(1).occupied(), 5); // plus the 4 neighbours
        assert_eq!(grid.dilate(2).occupied(), 13);
        // dilation of an empty grid stays empty
        assert!(ClassGrid::empty(5).dilate(2).is_empty());
    }

    #[test]
    fn manhattan_distance_and_within() {
        assert_eq!(ClassGrid::manhattan((0, 0), (2, 3)), 5);
        let mut grid = ClassGrid::empty(5);
        grid.set(2, 2, 1.0);
        assert!(grid.occupied_within((2, 2), 0));
        assert!(grid.occupied_within((3, 2), 1));
        assert!(!grid.occupied_within((4, 4), 1));
        assert!(grid.occupied_within((4, 4), 4));
    }
}
