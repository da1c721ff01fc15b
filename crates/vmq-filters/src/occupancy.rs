//! Bit-packed occupancy: what the cascade check reads from a filter estimate.
//!
//! The cascade decision never needs the `f32` activation maps themselves —
//! only which cells clear the binarisation threshold, how far that occupancy
//! extends along each axis, and how it overlaps a handful of screen regions.
//! A [`BitGrid`] holds one thresholded `g×g` grid as one `u64` word per row
//! (`g ≤ 64` covers the 8/14/56 grids in use), so masking is an `AND`,
//! counting a `popcount`, and Manhattan dilation a few masked shifts. An
//! [`OccupancySummary`] reduces a whole [`FilterEstimate`] to that form once
//! per `(backend, frame)`: rounded counts, one bit grid with its row/column
//! extents per `(class, threshold)`, and the region masks every frame is
//! checked against.
//!
//! Non-finite filter outputs are surfaced, not absorbed: a count or grid cell
//! that is NaN or infinite makes its slot *unknown* (exactly like a class the
//! filter was never trained on), so a consumer cannot mistake a broken
//! estimate for evidence that a frame may be dropped.

use crate::estimate::FilterEstimate;
use crate::grid::ClassGrid;
use vmq_video::{BoundingBox, ObjectClass};

/// A binary `g×g` occupancy grid, bit-packed: word `r` holds row `r`, bit
/// `c` of it column `c`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitGrid {
    g: usize,
    rows: Vec<u64>,
}

impl BitGrid {
    /// Largest supported grid side (one machine word per row).
    pub const MAX_SIDE: usize = 64;

    /// An all-empty grid of side `g`.
    pub fn empty(g: usize) -> Self {
        assert!(g <= Self::MAX_SIDE, "bit-packed occupancy supports grids up to 64×64, got {g}");
        BitGrid { g, rows: vec![0; g] }
    }

    /// The cells of a `g×g` grid whose rectangles overlap `region` — the
    /// cells [`ClassGrid::masked_by_region`] keeps. Overlap of axis-aligned
    /// rectangles is separable, so the mask is (rows overlapping in `y`) ×
    /// (columns overlapping in `x`), each decided by the very comparisons
    /// `BoundingBox::intersects` makes.
    pub fn from_region(g: usize, region: &BoundingBox) -> Self {
        let mut grid = BitGrid::empty(g);
        let (mut cols, mut rows) = (0u64, 0u64);
        for i in 0..g {
            // The diagonal cell (i, i): column i's x-span, row i's y-span.
            let cell =
                BoundingBox { x: i as f32 / g as f32, y: i as f32 / g as f32, w: 1.0 / g as f32, h: 1.0 / g as f32 };
            cols |= u64::from(region.x < cell.right() && cell.x < region.right()) << i;
            rows |= u64::from(region.y < cell.bottom() && cell.y < region.bottom()) << i;
        }
        for (r, word) in grid.rows.iter_mut().enumerate() {
            if rows >> r & 1 == 1 {
                *word = cols;
            }
        }
        grid
    }

    /// Re-binarises `grid` at threshold `t` into `self`, reusing its storage
    /// (a cell is occupied when its value is `>= t`, as in
    /// [`ClassGrid::threshold`]). Returns `false` when any cell is NaN or
    /// infinite: the caller must then treat the grid as unknown.
    ///
    /// The row-major cells are packed eight `>= t` compares to a byte, with
    /// the finiteness test folded into the same pass; each row's `g` bits are
    /// then read out of the byte buffer at bit offset `row · g`.
    pub fn assign_threshold(&mut self, grid: &ClassGrid, t: f32) -> bool {
        let g = grid.size();
        assert!(g <= Self::MAX_SIDE, "bit-packed occupancy supports grids up to 64×64, got {g}");
        // Eight spare bytes past the largest grid: a row read may touch up to
        // nine bytes.
        let mut bytes = [0u8; Self::MAX_SIDE * Self::MAX_SIDE / 8 + 8];
        let mut non_finite = 0u8;
        let mut pack = |byte: &mut u8, cells: &[f32]| {
            let mut bits = 0u8;
            for (k, &v) in cells.iter().enumerate() {
                bits |= u8::from(v >= t) << k;
                non_finite |= u8::from(!v.is_finite());
            }
            *byte = bits;
        };
        let (chunks, tail) = grid.cells().as_chunks::<8>();
        for (byte, chunk) in bytes.iter_mut().zip(chunks) {
            pack(byte, chunk);
        }
        pack(&mut bytes[chunks.len()], tail);
        self.g = g;
        self.rows.clear();
        let mask = u64::MAX >> (64 - g);
        for row in 0..g {
            let (at, shift) = (row * g / 8, row * g % 8);
            let low = u64::from_le_bytes(*bytes[at..].first_chunk().expect("a row read stays inside the buffer"));
            let mut word = low >> shift;
            if shift + g > 64 {
                word |= u64::from(bytes[at + 8]) << (64 - shift);
            }
            self.rows.push(word & mask);
        }
        non_finite == 0
    }

    /// Grid side length.
    pub fn size(&self) -> usize {
        self.g
    }

    /// True when cell `(row, col)` is occupied.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(col < self.g, "column {col} outside a {0}×{0} grid", self.g);
        self.rows[row] >> col & 1 == 1
    }

    /// Number of occupied cells.
    pub fn occupied(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when any cell is occupied in both grids.
    pub fn intersects(&self, other: &BitGrid) -> bool {
        debug_assert_eq!(self.g, other.g, "grid size mismatch");
        self.rows.iter().zip(&other.rows).any(|(a, b)| a & b != 0)
    }

    /// Number of cells occupied in both grids.
    pub fn count_in(&self, mask: &BitGrid) -> usize {
        debug_assert_eq!(self.g, mask.g, "grid size mismatch");
        self.rows.iter().zip(&mask.rows).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// `(first, last)` occupied column, or `None` for an empty grid.
    pub fn col_extent(&self) -> Option<(usize, usize)> {
        let all = self.rows.iter().fold(0u64, |acc, w| acc | w);
        (all != 0).then(|| (all.trailing_zeros() as usize, 63 - all.leading_zeros() as usize))
    }

    /// `(first, last)` occupied row, or `None` for an empty grid.
    pub fn row_extent(&self) -> Option<(usize, usize)> {
        let first = self.rows.iter().position(|&w| w != 0)?;
        let last = self.rows.iter().rposition(|&w| w != 0)?;
        Some((first, last))
    }

    /// Occupied cells per column (`by_col`) or per row, in index order; the
    /// entries past the grid side stay zero.
    pub fn axis_counts(&self, by_col: bool) -> [u64; Self::MAX_SIDE] {
        let mut counts = [0u64; Self::MAX_SIDE];
        for (r, &word) in self.rows.iter().enumerate() {
            if by_col {
                let mut rest = word;
                while rest != 0 {
                    counts[rest.trailing_zeros() as usize] += 1;
                    rest &= rest - 1;
                }
            } else {
                counts[r] = u64::from(word.count_ones());
            }
        }
        counts
    }

    /// Morphological dilation by Manhattan radius `d`, with the semantics of
    /// [`ClassGrid::dilate`]. One round ORs every row with its two shifted
    /// copies (masked to the grid side, so nothing wraps past the last
    /// column) and its two neighbouring rows; `d` rounds of that 4-neighbour
    /// step reach exactly the cells within Manhattan distance `d`, because
    /// a shortest lattice path between two cells of a square grid never has
    /// to leave it.
    pub fn dilate(&self, d: usize) -> BitGrid {
        let g = self.g;
        let side_mask = if g == Self::MAX_SIDE { u64::MAX } else { (1u64 << g) - 1 };
        let mut current = self.clone();
        let mut next = vec![0u64; g];
        // Past the grid's Manhattan diameter another round changes nothing.
        for _ in 0..d.min(2 * g) {
            for (r, out) in next.iter_mut().enumerate() {
                let word = current.rows[r];
                let above = if r > 0 { current.rows[r - 1] } else { 0 };
                let below = if r + 1 < g { current.rows[r + 1] } else { 0 };
                *out = (word | word << 1 | word >> 1 | above | below) & side_mask;
            }
            std::mem::swap(&mut current.rows, &mut next);
        }
        current
    }

    /// The same occupancy as a 0/1 [`ClassGrid`].
    pub fn to_class_grid(&self) -> ClassGrid {
        let cells = (0..self.g * self.g).map(|i| f32::from(self.get(i / self.g, i % self.g))).collect();
        ClassGrid::from_values(self.g, cells)
    }
}

/// What is read from every estimate of one backend. Append-only: a slot
/// index handed out by one of the `*_slot` methods stays valid for good.
#[derive(Debug, Clone, Default)]
pub struct SummarySpec {
    counts: Vec<ObjectClass>,
    layers: Vec<(ObjectClass, usize)>,
    masks: Vec<(BoundingBox, usize)>,
}

impl SummarySpec {
    /// Slot of `class`'s count estimate.
    pub fn count_slot(&mut self, class: ObjectClass) -> usize {
        intern(&mut self.counts, class)
    }

    /// Slot of `class`'s grid binarised at the threshold in `threshold_slot`
    /// of the slice handed to [`OccupancySummary::load`].
    pub fn layer_slot(&mut self, class: ObjectClass, threshold_slot: usize) -> usize {
        intern(&mut self.layers, (class, threshold_slot))
    }

    /// Slot of the mask of cells within Manhattan distance `tolerance` of
    /// `region`.
    pub fn mask_slot(&mut self, region: BoundingBox, tolerance: usize) -> usize {
        intern(&mut self.masks, (region, tolerance))
    }
}

fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|known| *known == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// A finite count estimate: the raw value and its rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountEstimate {
    /// The filter's real-valued estimate.
    pub raw: f32,
    /// The estimate rounded to the nearest integer.
    pub rounded: i64,
}

/// One binarised class grid and how far its occupancy extends.
#[derive(Debug, Clone, Default)]
pub struct OccupancyLayer {
    /// The thresholded occupancy.
    pub bits: BitGrid,
    /// `(first, last)` occupied column, `None` when empty.
    pub cols: Option<(usize, usize)>,
    /// `(first, last)` occupied row, `None` when empty.
    pub rows: Option<(usize, usize)>,
    known: bool,
}

/// One [`FilterEstimate`] reduced to what a [`SummarySpec`] asks for. The
/// value is scratch tied to one spec: [`OccupancySummary::load`] overwrites
/// it per frame, reusing every allocation, and keeps the region masks —
/// which depend only on the spec and the grid side — across frames.
#[derive(Debug, Clone, Default)]
pub struct OccupancySummary {
    side: usize,
    total: Option<CountEstimate>,
    counts: Vec<Option<CountEstimate>>,
    layers: Vec<OccupancyLayer>,
    masks: Vec<BitGrid>,
}

impl OccupancySummary {
    /// Summarises `estimate`; layer `(class, slot)` is binarised at
    /// `thresholds[slot]`.
    pub fn load(&mut self, estimate: &FilterEstimate, spec: &SummarySpec, thresholds: &[f32]) {
        let total = estimate.total_count();
        self.total = total.is_finite().then(|| CountEstimate { raw: total, rounded: estimate.total_count_rounded() });
        self.counts.clear();
        self.counts.extend(spec.counts.iter().map(|&class| {
            let raw = estimate.count_for(class).filter(|raw| raw.is_finite())?;
            Some(CountEstimate { raw, rounded: estimate.count_for_rounded(class)? })
        }));

        let side = estimate.grids.first().map_or(0, ClassGrid::size);
        self.layers.resize_with(spec.layers.len(), OccupancyLayer::default);
        for (layer, &(class, slot)) in self.layers.iter_mut().zip(&spec.layers) {
            layer.known = estimate.grid_for(class).is_some_and(|grid| {
                assert_eq!(grid.size(), side, "every grid of one estimate has the same side");
                layer.bits.assign_threshold(grid, thresholds[slot])
            });
            if layer.known {
                layer.cols = layer.bits.col_extent();
                layer.rows = layer.bits.row_extent();
            }
        }

        if side != self.side {
            self.masks.clear();
            self.side = side;
        }
        for (region, tolerance) in &spec.masks[self.masks.len()..] {
            self.masks.push(BitGrid::from_region(side, region).dilate(*tolerance));
        }
    }

    /// Grid side of the summarised estimate (0 when it carries no grid).
    pub fn side(&self) -> usize {
        self.side
    }

    /// The total count; `None` when it is not finite.
    pub fn total(&self) -> Option<CountEstimate> {
        self.total
    }

    /// The count in `slot`; `None` when the filter was not trained for the
    /// class or its estimate is not finite.
    pub fn count(&self, slot: usize) -> Option<CountEstimate> {
        self.counts[slot]
    }

    /// The layer in `slot`; `None` when the filter was not trained for the
    /// class or any cell of its grid is not finite.
    pub fn layer(&self, slot: usize) -> Option<&OccupancyLayer> {
        Some(&self.layers[slot]).filter(|layer| layer.known)
    }

    /// The region mask in `slot`.
    pub fn mask(&self, slot: usize) -> &BitGrid {
        &self.masks[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::FilterKind;

    fn marked(g: usize, cells: &[(usize, usize)]) -> ClassGrid {
        let mut grid = ClassGrid::empty(g);
        for &(r, c) in cells {
            grid.set(r, c, 1.0);
        }
        grid
    }

    fn bits(grid: &ClassGrid, t: f32) -> BitGrid {
        let mut out = BitGrid::default();
        assert!(out.assign_threshold(grid, t));
        out
    }

    #[test]
    fn threshold_matches_class_grid_and_flags_non_finite_cells() {
        let grid = ClassGrid::from_values(2, vec![0.1, 0.3, 0.6, 0.9]);
        assert_eq!(bits(&grid, 0.5).to_class_grid(), grid.threshold(0.5));
        assert_eq!(bits(&grid, 0.2).occupied(), 3);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let grid = ClassGrid::from_values(2, vec![0.1, bad, 0.6, 0.9]);
            assert!(!BitGrid::default().assign_threshold(&grid, 0.5), "{bad} must be flagged");
        }
    }

    #[test]
    fn dilation_never_wraps_at_the_last_column_of_a_full_width_grid() {
        let corner = bits(&marked(64, &[(0, 63)]), 0.5);
        let grown = corner.dilate(1);
        assert_eq!(grown.occupied(), 3);
        assert!(grown.get(0, 62) && grown.get(1, 63) && !grown.get(0, 0) && !grown.get(1, 0));
        assert_eq!(corner.dilate(1_000_000).occupied(), 64 * 64, "radius past the diameter saturates");
        assert_eq!(BitGrid::empty(64).dilate(3).occupied(), 0);
    }

    #[test]
    fn extents_and_axis_counts() {
        let grid = bits(&marked(8, &[(1, 6), (1, 2), (5, 2)]), 0.5);
        assert_eq!(grid.col_extent(), Some((2, 6)));
        assert_eq!(grid.row_extent(), Some((1, 5)));
        assert_eq!(&grid.axis_counts(true)[..8], &[0, 0, 2, 0, 0, 0, 1, 0]);
        assert_eq!(&grid.axis_counts(false)[..8], &[0, 2, 0, 0, 0, 1, 0, 0]);
        assert_eq!(BitGrid::empty(8).col_extent(), None);
        assert_eq!(BitGrid::empty(8).row_extent(), None);
    }

    #[test]
    fn summary_reports_untrained_and_non_finite_slots_as_unknown() {
        let mut spec = SummarySpec::default();
        let car = spec.count_slot(ObjectClass::Car);
        let bus = spec.count_slot(ObjectClass::Bus);
        assert_eq!(spec.count_slot(ObjectClass::Car), car, "slots are interned");
        let car_layer = spec.layer_slot(ObjectClass::Car, 0);
        let bus_layer = spec.layer_slot(ObjectClass::Bus, 0);
        let mask = spec.mask_slot(BoundingBox::new(0.5, 0.5, 0.5, 0.5), 0);
        let mut estimate = FilterEstimate {
            classes: vec![ObjectClass::Car],
            counts: vec![2.4],
            grids: vec![marked(4, &[(3, 3)])],
            kind: FilterKind::Od,
            total_hint: None,
        };
        let mut summary = OccupancySummary::default();
        summary.load(&estimate, &spec, &[0.5]);
        assert_eq!(summary.count(car), Some(CountEstimate { raw: 2.4, rounded: 2 }));
        assert_eq!(summary.count(bus), None);
        assert_eq!(summary.total().map(|t| t.rounded), Some(2));
        assert!(summary.layer(bus_layer).is_none());
        let layer = summary.layer(car_layer).expect("trained and finite");
        assert_eq!((layer.cols, layer.rows), (Some((3, 3)), Some((3, 3))));
        assert_eq!(layer.bits.count_in(summary.mask(mask)), 1);

        estimate.counts[0] = f32::NAN;
        estimate.grids[0].set(0, 0, f32::INFINITY);
        summary.load(&estimate, &spec, &[0.5]);
        assert_eq!(summary.count(car), None);
        assert_eq!(summary.total(), None);
        assert!(summary.layer(car_layer).is_none());
    }
}
