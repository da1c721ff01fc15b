//! Property-based tests of grids, metrics and the calibrated filter.

use proptest::prelude::*;
use vmq_filters::{
    BitGrid, CalibratedFilter, CalibrationProfile, ClassGrid, ClfMetrics, CofFilter, CountMetrics, FilterConfig,
    FilterEstimate, FrameFilter, IcFilter, OdFilter, QuantizedCofFilter, QuantizedIcFilter, QuantizedOdFilter,
};
use vmq_video::{BoundingBox, Color, Frame, ObjectClass, SceneObject};

fn bbox_strategy() -> impl Strategy<Value = BoundingBox> {
    (0.0f32..0.9, 0.0f32..0.9, 0.02f32..0.3, 0.02f32..0.3).prop_map(|(x, y, w, h)| BoundingBox::new(x, y, w, h))
}

fn frame_strategy(max_objects: usize) -> impl Strategy<Value = Frame> {
    prop::collection::vec((bbox_strategy(), 0usize..3), 0..max_objects).prop_map(|objs| Frame {
        camera_id: 0,
        frame_id: 1,
        timestamp: 0.0,
        objects: objs
            .into_iter()
            .enumerate()
            .map(|(i, (bbox, class_idx))| SceneObject {
                track_id: i as u64,
                class: [ObjectClass::Car, ObjectClass::Person, ObjectClass::Bus][class_idx],
                color: Color::Red,
                bbox,
                velocity: (0.0, 0.0),
            })
            .collect(),
    })
}

/// Bit-exact comparison of two estimate vectors (f32 payloads compared by
/// value equality, which for finite filter outputs is bit equality).
fn assert_estimates_bit_identical(
    reference: &[FilterEstimate],
    sharded: &[FilterEstimate],
    backend: &str,
    batch_size: usize,
    workers: usize,
) {
    assert_eq!(reference.len(), sharded.len(), "{backend} batch={batch_size} workers={workers}");
    for (i, (a, b)) in reference.iter().zip(sharded).enumerate() {
        let ctx = format!("{backend} frame {i} batch={batch_size} workers={workers}");
        assert_eq!(a.classes, b.classes, "classes {ctx}");
        assert_eq!(a.kind, b.kind, "kind {ctx}");
        assert_eq!(a.counts, b.counts, "counts {ctx}");
        assert_eq!(a.total_hint, b.total_hint, "total_hint {ctx}");
        assert_eq!(a.grids.len(), b.grids.len(), "grid count {ctx}");
        for (ga, gb) in a.grids.iter().zip(&b.grids) {
            assert_eq!(ga.cells(), gb.cells(), "grid cells {ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every non-degenerate box marks at least one grid cell, and the number
    /// of occupied cells grows (weakly) with the grid resolution.
    #[test]
    fn grid_from_boxes_covers_boxes(b in bbox_strategy(), g in 4usize..20) {
        let grid = ClassGrid::from_boxes(g, &[b]);
        prop_assert!(grid.occupied() >= 1);
        let finer = ClassGrid::from_boxes(g * 2, &[b]);
        prop_assert!(finer.occupied() >= grid.occupied());
    }

    /// Thresholding is monotone: a higher threshold never occupies more cells.
    #[test]
    fn threshold_monotonicity(cells in prop::collection::vec(0.0f32..1.0, 16), t1 in 0.0f32..1.0, t2 in 0.0f32..1.0) {
        let grid = ClassGrid::from_values(4, cells);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(grid.threshold(lo).occupied() >= grid.threshold(hi).occupied());
    }

    /// Dilation is extensive (never loses cells) and monotone in the radius.
    #[test]
    fn dilation_monotone(b in bbox_strategy(), d1 in 0usize..3, d2 in 0usize..3) {
        let grid = ClassGrid::from_boxes(8, &[b]);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(grid.dilate(lo).occupied() >= grid.occupied());
        prop_assert!(grid.dilate(hi).occupied() >= grid.dilate(lo).occupied());
    }

    /// Region masking never adds cells and the full frame is the identity.
    #[test]
    fn region_mask_shrinks(b in bbox_strategy(), region in bbox_strategy()) {
        let grid = ClassGrid::from_boxes(10, &[b]);
        let masked = grid.masked_by_region(&region);
        prop_assert!(masked.occupied() <= grid.occupied());
        let full = grid.masked_by_region(&BoundingBox::full_frame());
        prop_assert_eq!(full.occupied(), grid.occupied());
    }

    /// The bit-packed grid is the `ClassGrid` reference cell for cell:
    /// thresholding, dilation by masked shifts ≡ the Manhattan-ball scan,
    /// and the separable region mask ≡ `masked_by_region` — on every grid
    /// side in use plus the 1×1 and full-word extremes, with the last row
    /// and column (where a shift could wrap) always occupied.
    #[test]
    fn bit_grid_matches_class_grid_reference(
        g_idx in 0usize..6,
        cells in prop::collection::vec((0usize..64, 0usize..64, 0.0f32..1.0), 0..10),
        t in 0.0f32..1.0,
        d in 0usize..4,
        region in (-0.2f32..1.0, -0.2f32..1.0, 0.0f32..1.2, 0.0f32..1.2),
    ) {
        let g = [1usize, 5, 8, 14, 56, 64][g_idx];
        let mut grid = ClassGrid::empty(g);
        grid.set(g - 1, g - 1, 1.0);
        for &(r, c, v) in &cells {
            grid.set(r % g, c % g, v);
        }
        let mut bits = BitGrid::default();
        prop_assert!(bits.assign_threshold(&grid, t));
        let reference = grid.threshold(t);
        prop_assert_eq!(bits.to_class_grid(), reference.clone());
        prop_assert_eq!(bits.occupied(), reference.occupied());
        prop_assert_eq!(bits.dilate(d).to_class_grid(), reference.dilate(d), "dilate({}) on {}x{}", d, g, g);

        let region = BoundingBox { x: region.0, y: region.1, w: region.2, h: region.3 };
        let mask = BitGrid::from_region(g, &region);
        let mut full = ClassGrid::empty(g);
        for row in 0..g {
            for col in 0..g {
                full.set(row, col, 1.0);
            }
        }
        prop_assert_eq!(mask.to_class_grid(), full.masked_by_region(&region), "region {:?} on {}x{}", region, g, g);
        prop_assert_eq!(bits.count_in(&mask), reference.masked_by_region(&region).occupied());
        prop_assert_eq!(bits.intersects(&mask), !reference.masked_by_region(&region).is_empty());
    }

    /// CLF metrics are monotone in the Manhattan tolerance and bounded by 1.
    #[test]
    fn clf_metrics_monotone_in_tolerance(a in bbox_strategy(), b in bbox_strategy()) {
        let pred = ClassGrid::from_boxes(10, &[a]);
        let truth = ClassGrid::from_boxes(10, &[b]);
        let f1 = |tol: usize| {
            let (tp, fp, fn_) = ClfMetrics::accumulate(&pred, &truth, tol);
            ClfMetrics::from_counts(tp, fp, fn_).f1
        };
        prop_assert!(f1(0) <= f1(1) + 1e-6);
        prop_assert!(f1(1) <= f1(2) + 1e-6);
        prop_assert!(f1(2) <= 1.0 + 1e-6);
    }

    /// Count metrics are monotone in the tolerance band.
    #[test]
    fn count_metrics_monotone(pairs in prop::collection::vec((0i64..10, 0i64..10), 1..40)) {
        let m = CountMetrics::from_pairs(&pairs);
        prop_assert!(m.exact <= m.within_one + 1e-6);
        prop_assert!(m.within_one <= m.within_two + 1e-6);
        prop_assert!((0.0..=1.0).contains(&m.exact));
    }

    /// A perfect calibrated filter reproduces the ground-truth counts and a
    /// noisy one still produces valid estimates (non-negative counts, grids
    /// bounded in [0, 1], same classes).
    #[test]
    fn calibrated_filter_estimates_are_valid(frame in frame_strategy(8), noisy in proptest::bool::ANY) {
        let profile = if noisy { CalibrationProfile::od_like() } else { CalibrationProfile::perfect() };
        let classes = vec![ObjectClass::Car, ObjectClass::Person, ObjectClass::Bus];
        let filter = CalibratedFilter::new(classes.clone(), 12, profile, 5);
        let est = filter.estimate(&frame);
        prop_assert_eq!(est.classes.clone(), classes.clone());
        prop_assert!(est.counts.iter().all(|&c| c >= 0.0));
        prop_assert!(est.grids.iter().all(|g| g.cells().iter().all(|&v| (0.0..=1.0).contains(&v))));
        if !noisy {
            for &class in &classes {
                prop_assert_eq!(est.count_for_rounded(class).unwrap(), frame.class_count(class) as i64);
            }
        }
    }
}

proptest! {
    // Each case runs ~a thousand small-net inferences; a handful of cases
    // at full combinatorial width (4 backends × 3 batch sizes × 3 worker
    // counts) gives the coverage without minutes of wall time.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded batch inference is bit-identical to the sequential per-frame
    /// path for every backend — IC, OD, OD-COF, their int8 twins and
    /// calibrated — across pipeline batch sizes {1, 7, 32} × worker counts
    /// {1, 2, 4}. This is the worker-invariance contract the parallel filter
    /// stage rests on: sharding (and batching) are pure wall-clock knobs.
    ///
    /// Kernel dispatch (scalar vs SIMD) is the third axis of the matrix:
    /// the f32 SIMD kernels may differ from scalar within a documented ULP
    /// tolerance (see `vmq_nn::kernels`), but within one backend they are
    /// fully deterministic, which is all this property needs — both sides
    /// of every comparison here run under the same process-wide dispatch.
    /// The property runs under whichever backend the host dispatches; the
    /// scalar side is covered by CI's forced-scalar rerun of the golden and
    /// learned-filter end-to-end tests, whose sharded runs must reproduce
    /// the same snapshots. The int8 twins are dispatch-invariant by
    /// construction (exact integer accumulation).
    #[test]
    fn sharded_estimate_batch_is_bit_identical_to_per_frame(
        frames in prop::collection::vec(frame_strategy(6), 1..33),
        cal_seed in 0u64..1000,
    ) {
        let classes = vec![ObjectClass::Car, ObjectClass::Person, ObjectClass::Bus];
        let config = FilterConfig::fast_test(classes.clone());
        let ic = IcFilter::new(config.clone());
        let od = OdFilter::new(config.clone());
        let cof = CofFilter::new(config);
        let calib = &frames[..frames.len().min(4)];
        let ic8 = QuantizedIcFilter::from_trained(&ic, calib);
        let od8 = QuantizedOdFilter::from_trained(&od, calib);
        let cof8 = QuantizedCofFilter::from_trained(&cof, calib);

        // Learned backends are stateless at inference time: one reference
        // pass per filter, then every (batch, workers) combination must
        // reproduce it exactly.
        for filter in [&ic as &dyn FrameFilter, &od, &cof, &ic8, &od8, &cof8] {
            let reference: Vec<FilterEstimate> = frames.iter().map(|f| filter.estimate(f)).collect();
            for batch_size in [1usize, 7, 32] {
                for workers in [1usize, 2, 4] {
                    let mut sharded: Vec<FilterEstimate> = Vec::new();
                    for chunk in frames.chunks(batch_size) {
                        sharded.extend(filter.estimate_batch_sharded(chunk, workers));
                    }
                    assert_estimates_bit_identical(&reference, &sharded, filter.kind().name(), batch_size, workers);
                }
            }
        }

        // The calibrated backend consumes one sequential RNG stream, so each
        // run needs a fresh identically-seeded instance.
        let reference: Vec<FilterEstimate> = {
            let filter = CalibratedFilter::new(classes.clone(), 12, CalibrationProfile::od_like(), cal_seed);
            frames.iter().map(|f| filter.estimate(f)).collect()
        };
        for batch_size in [1usize, 7, 32] {
            for workers in [1usize, 2, 4] {
                let filter = CalibratedFilter::new(classes.clone(), 12, CalibrationProfile::od_like(), cal_seed);
                let mut sharded: Vec<FilterEstimate> = Vec::new();
                for chunk in frames.chunks(batch_size) {
                    sharded.extend(filter.estimate_batch_sharded(chunk, workers));
                }
                assert_estimates_bit_identical(&reference, &sharded, "CAL", batch_size, workers);
            }
        }
    }
}
