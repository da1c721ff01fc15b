//! The decode step against each filter's own batch path: `estimate_shared`
//! renders a frame once for a whole group of learned filters, and every
//! filter's estimates must come out bit-identical to its own
//! `estimate_batch_sharded` — for groups of 1, 2, 3 and 6 trained filters
//! (IC, OD, OD-COF and their int8 twins), any worker count and any batch
//! size — without growing inference scratch once warm.

use vmq_detect::OracleDetector;
use vmq_filters::{
    estimate_shared, FilterConfig, FilterEstimate, FrameFilter, IcFilter, OdFilter, QuantizedCofFilter,
    QuantizedIcFilter, QuantizedOdFilter, TrainedFilters,
};
use vmq_nn::scratch_growth_events;
use vmq_video::{Dataset, DatasetProfile, RasterConfig};

fn estimate_bits(e: &FilterEstimate) -> Vec<u32> {
    let grids = e.grids.iter().flat_map(|g| g.cells().iter().copied());
    e.counts.iter().copied().chain(e.total_hint).chain(grids).map(f32::to_bits).collect()
}

/// One test on purpose: `scratch_growth_events` is process-wide, so nothing
/// else in this binary may run filters while it is being watched.
#[test]
fn shared_render_matches_each_filters_own_path_without_growing_scratch() {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 40, 32, 29);
    let mut config = FilterConfig::fast_test(profile.class_list());
    config.schedule.epochs = 1;
    let trained = TrainedFilters::train(&ds, &config, &OracleDetector::perfect());
    let calib = &ds.train()[..8];
    let ic8 = QuantizedIcFilter::from_trained(&trained.ic, calib);
    let od8 = QuantizedOdFilter::from_trained(&trained.od, calib);
    let cof8 = QuantizedCofFilter::from_trained(&trained.cof, calib);
    let all: [&dyn FrameFilter; 6] = [&trained.ic, &trained.od, &trained.cof, &ic8, &od8, &cof8];
    assert!(all.iter().all(|f| f.raster() == Some(&config.raster)), "every learned filter reports its raster");
    let frames = ds.test();
    assert_eq!(frames.len(), 32);

    // Warm every thread the pool will use on the largest group; from then
    // on neither the shared nor the single-filter path may grow scratch.
    for _ in 0..2 {
        for workers in 1..=3 {
            estimate_shared(&all, frames, workers);
        }
    }
    let warm = scratch_growth_events();

    let groups: [&[&dyn FrameFilter]; 6] =
        [&all[..1], &all[4..5], &[all[0], all[1]], &[all[5], all[2]], &all[..3], &all];
    for group in groups {
        for workers in 1..=3 {
            for batch in [0, 1, 7, 32] {
                let frames = &frames[..batch];
                let shared = estimate_shared(group, frames, workers);
                assert_eq!(shared.len(), group.len());
                for (filter, estimates) in group.iter().zip(&shared) {
                    let name = filter.kind().name();
                    let own = filter.estimate_batch_sharded(frames, workers);
                    assert_eq!(estimates.len(), own.len(), "{name}: group of {}", group.len());
                    for (i, (got, want)) in estimates.iter().zip(&own).enumerate() {
                        assert_eq!(
                            estimate_bits(got),
                            estimate_bits(want),
                            "{name}: frame {i} of {batch}, group of {}, {workers} workers",
                            group.len()
                        );
                    }
                }
            }
        }
    }
    assert_eq!(scratch_growth_events(), warm, "steady-state shared renders grew scratch");
}

/// Filters whose networks read different rasters never share a render:
/// `estimate_shared` refuses such a group rather than feed one of them
/// pixels of the wrong size.
#[test]
#[should_panic(expected = "one raster per group")]
fn filters_with_different_rasters_are_never_grouped() {
    let classes = DatasetProfile::jackson().class_list();
    let tiny = IcFilter::new(FilterConfig::fast_test(classes.clone()));
    let default = OdFilter::new(FilterConfig::experiment(classes));
    assert_eq!(tiny.raster(), Some(&RasterConfig::tiny()));
    assert_eq!(default.raster(), Some(&RasterConfig::default()));
    estimate_shared(&[&tiny, &default], &[], 1);
}
