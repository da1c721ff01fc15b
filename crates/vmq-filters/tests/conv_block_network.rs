//! Network-level pins for the conv-block inference path.
//!
//! `Sequential::infer_ws` runs every `Conv2d → Activation [→ MaxPool2d(2)]`
//! block as one kernel call; a layer-by-layer `Layer::infer` replay is what
//! it must reproduce bit for bit — on the real trunks, and on the stacks
//! that sit just outside the pattern. The trained filters then have to give
//! the same estimates whichever entry point asks, without growing scratch.

use vmq_detect::OracleDetector;
use vmq_filters::arch::{build_branch, build_trunk};
use vmq_filters::{FilterConfig, FilterEstimate, FrameFilter, TrainedFilters};
use vmq_nn::layer::{Act, Activation, Conv2d, Layer, MaxPool2d};
use vmq_nn::{scratch_growth_events, Sequential, Tensor, Workspace};
use vmq_video::{Dataset, DatasetProfile, ObjectClass};

/// `net.infer_ws` against running each layer's own `infer` in turn.
fn assert_infer_ws_equals_layer_replay(net: &Sequential, input: &Tensor, what: &str) -> Tensor {
    let mut replay = Workspace::new();
    replay.load(input);
    for layer in net.layers() {
        layer.infer(&mut replay);
    }
    // A workspace that already served a larger pass: stale buffer contents
    // must not leak into the block kernel's output.
    let mut ws = Workspace::new();
    ws.load_slice(&vec![f32::NAN; 4 * input.len()], &[4 * input.len()]);
    let out = net.infer(input, &mut ws);
    assert_eq!(out.shape(), replay.shape(), "{what}: shape");
    let bits = |data: &[f32]| data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(out.data()), bits(replay.data()), "{what}: infer_ws differs from the layer-by-layer replay");
    out
}

fn raster_tensor(config: &FilterConfig, seed: u64) -> Tensor {
    let ds = Dataset::generate(&DatasetProfile::jackson(), 4, 1, seed);
    let image = config.raster.render(&ds.train()[0]);
    Tensor::from_vec(image.data, vec![image.channels, image.height, image.width])
}

#[test]
fn trunks_and_branch_infer_like_a_layer_by_layer_replay() {
    let classes = vec![ObjectClass::Car, ObjectClass::Person];
    // The experiment shapes the benchmark runs (56 px, 8/16/16 channels) and
    // the unit-test shapes (28 px, 6/12 channels: all channel tails).
    for config in [FilterConfig::experiment(classes.clone()), FilterConfig::fast_test(classes.clone())] {
        let x = raster_tensor(&config, 3);
        let ic_trunk = build_trunk(&config, Act::Relu, config.seed);
        assert_infer_ws_equals_layer_replay(&ic_trunk, &x, "IC trunk");
        let od_trunk = build_trunk(&config, Act::LeakyRelu(0.1), config.seed.wrapping_add(1000));
        let features = assert_infer_ws_equals_layer_replay(&od_trunk, &x, "OD trunk");
        let branch = build_branch(config.feature_channels(), config.branch_channels, 2, config.seed.wrapping_add(2000));
        assert_infer_ws_equals_layer_replay(&branch, &features, "OD branch");
    }
}

#[test]
fn stacks_outside_the_block_pattern_infer_like_a_layer_by_layer_replay() {
    let relu = || Box::new(Activation::new(Act::Relu)) as Box<dyn Layer>;
    let conv = |cin, cout, seed| Box::new(Conv2d::same(cin, cout, seed)) as Box<dyn Layer>;
    let pool = |size| Box::new(MaxPool2d::new(size)) as Box<dyn Layer>;
    let stacks: Vec<(&str, Vec<Box<dyn Layer>>)> = vec![
        ("conv with no activation after it", vec![conv(3, 5, 1), conv(5, 4, 2), relu()]),
        ("conv as the last layer", vec![conv(3, 9, 3)]),
        ("sigmoid after a conv", vec![conv(3, 5, 4), Box::new(Activation::new(Act::Sigmoid)), pool(2)]),
        ("tanh after a conv", vec![conv(3, 5, 5), Box::new(Activation::new(Act::Tanh))]),
        ("3x3 pool after a block", vec![conv(3, 5, 6), relu(), pool(3)]),
        ("pool directly after a conv", vec![conv(3, 5, 7), pool(2), relu()]),
        ("1x1 conv", vec![Box::new(Conv2d::new(3, 5, 1, 1, 0, 8)), relu(), pool(2)]),
        ("strided conv", vec![Box::new(Conv2d::new(3, 5, 3, 2, 1, 9)), relu(), pool(2)]),
        ("activation first", vec![relu(), conv(3, 5, 10), relu(), pool(2), conv(5, 5, 11), relu()]),
    ];
    let x = Tensor::from_vec((0..3 * 12 * 12).map(|v| (v as f32 * 0.37).sin()).collect(), vec![3, 12, 12]);
    for (what, layers) in stacks {
        assert_infer_ws_equals_layer_replay(&Sequential::new(layers), &x, what);
    }
    // An odd map: the block keeps its pool out, and the replay's conv + ReLU
    // is all there is to match.
    let odd = Tensor::from_vec((0..3 * 7 * 9).map(|v| (v as f32 * 0.53).cos()).collect(), vec![3, 7, 9]);
    assert_infer_ws_equals_layer_replay(&Sequential::new(vec![conv(3, 9, 12), relu()]), &odd, "odd map");
}

fn estimate_bits(e: &FilterEstimate) -> Vec<u32> {
    let grids = e.grids.iter().flat_map(|g| g.cells().iter().copied());
    e.counts.iter().copied().chain(e.total_hint).chain(grids).map(f32::to_bits).collect()
}

/// One test on purpose: `scratch_growth_events` is process-wide, so nothing
/// else in this binary may run filters while it is being watched.
#[test]
fn trained_filters_agree_across_entry_points_without_growing_scratch() {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 48, 64, 17);
    let mut config = FilterConfig::fast_test(profile.class_list());
    config.schedule.epochs = 2;
    config.schedule.count_only_epochs = 1;
    let trained = TrainedFilters::train(&ds, &config, &OracleDetector::perfect());
    let twins: [Box<dyn FrameFilter>; 3] = [
        Box::new(vmq_filters::QuantizedIcFilter::from_trained(&trained.ic, &ds.train()[..8])),
        Box::new(vmq_filters::QuantizedOdFilter::from_trained(&trained.od, &ds.train()[..8])),
        Box::new(vmq_filters::QuantizedCofFilter::from_trained(&trained.cof, &ds.train()[..8])),
    ];
    let frames = ds.test();
    assert_eq!(frames.len(), 64);
    let f32_filters: [&dyn FrameFilter; 3] = [&trained.ic, &trained.od, &trained.cof];
    for filter in f32_filters.into_iter().chain(twins.iter().map(|t| t.as_ref())) {
        let name = filter.kind().name();
        // The first batch grows this thread's workspace to its high-water
        // mark; from then on neither entry point may allocate scratch.
        let batched = filter.estimate_batch(frames);
        let warm = scratch_growth_events();
        for (frame, want) in frames.iter().cycle().zip(batched.iter().cycle()).take(100) {
            assert_eq!(
                estimate_bits(&filter.estimate(frame)),
                estimate_bits(want),
                "{name}: estimate vs estimate_batch"
            );
        }
        let again = filter.estimate_batch(frames);
        assert_eq!(scratch_growth_events(), warm, "{name}: steady-state estimate / estimate_batch grew scratch");
        let sharded = filter.estimate_batch_sharded(frames, 2);
        for (i, want) in batched.iter().enumerate() {
            assert_eq!(estimate_bits(&again[i]), estimate_bits(want), "{name}: frame {i} second batch");
            assert_eq!(estimate_bits(&sharded[i]), estimate_bits(want), "{name}: frame {i} sharded(2)");
        }
    }
}
