//! Criterion micro-benchmarks of the hot paths: filter inference,
//! rasterisation, convolution kernels, spatial predicate evaluation, grid
//! operations and control-variate estimation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmq_aggregate::{CvEstimate, McvEstimate};
use vmq_detect::{Detector, OracleDetector};
use vmq_filters::{
    CalibratedFilter, CalibrationProfile, ClassGrid, FilterConfig, FrameFilter, IcFilter, OdFilter, QuantizedIcFilter,
};
use vmq_nn::grad::{conv2d_backward_input_into, conv2d_backward_params_into, conv2d_forward_into};
use vmq_nn::kernels::{conv2d_into, matmul_into};
use vmq_nn::ops::ConvSpec;
use vmq_nn::optim::{Adam, Optimizer};
use vmq_nn::train::sum_slots;
use vmq_nn::{KernelBackend, Tape, Tensor, Workspace};
use vmq_query::ast::CountOp;
use vmq_query::plan::AtomTable;
use vmq_query::{CascadeConfig, ObjectRef, Query, QueryExecutor, SpatialRelation};
use vmq_video::{Dataset, DatasetProfile, ObjectClass, RasterConfig};

fn bench_nn_kernels(c: &mut Criterion) {
    let (a, b) = (vec![0.5f32; 64 * 64], vec![0.25f32; 64 * 64]);
    let mut out = Vec::new();
    c.bench_function("nn/matmul 64x64", |bench| {
        bench.iter(|| matmul_into(black_box(&a), 64, 64, black_box(&b), 64, &mut out))
    });

    let spec = ConvSpec { in_channels: 8, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
    let input = vec![0.1f32; 8 * 28 * 28];
    let weight = vec![0.01f32; 16 * 8 * 9];
    let mut scratch = Vec::new();
    c.bench_function("nn/conv2d 8->16 @28x28", |bench| {
        bench.iter(|| {
            conv2d_into(black_box(&input), 28, 28, &spec, black_box(&weight), &[0.0; 16], &mut scratch, &mut out)
        })
    });

    // The same layer through the training kernels: forward once for the
    // padded input copy, then weight/bias and input gradients per iteration.
    let mut xpad = Vec::new();
    conv2d_forward_into(&input, 28, 28, &spec, &weight, &[0.0; 16], &mut xpad, &mut scratch, &mut out);
    let grad_out = vec![0.01f32; 16 * 28 * 28];
    let (mut dw, mut db) = (vec![0.0f32; weight.len()], vec![0.0f32; 16]);
    c.bench_function("nn/conv_backward 8->16 @28x28", |bench| {
        bench.iter(|| {
            conv2d_backward_params_into(&xpad, 28, 28, &spec, black_box(&grad_out), &mut scratch, &mut dw, &mut db);
            conv2d_backward_input_into(black_box(&weight), 28, 28, &spec, &grad_out, &mut scratch, &mut out);
        })
    });

    // One sample through the experiment-size trunk: forward, backward into
    // a gradient slot (no input gradient, as filter training runs it), the
    // slot summed into the parameters' gradients and an Adam step.
    let config = FilterConfig::experiment(vec![ObjectClass::Car, ObjectClass::Person]);
    let mut trunk = vmq_filters::arch::build_trunk(&config, vmq_nn::Act::Relu, 7);
    let image = vec![0.3f32; 3 * config.raster.height * config.raster.width];
    let grad = Tensor::full(vec![config.feature_channels(), config.grid, config.grid], 0.01);
    let mut opt = Adam::new(1e-3);
    let (mut ws, mut tape) = (Workspace::new(), Tape::default());
    let mut slot = vec![0.0f32; trunk.parameters().iter().map(|p| p.len()).sum()];
    c.bench_function("nn/train_step experiment trunk", |bench| {
        bench.iter(|| {
            ws.load_slice(black_box(&image), &[3, config.raster.height, config.raster.width]);
            trunk.forward_ws(&mut ws, &mut tape);
            ws.load(&grad);
            slot.fill(0.0);
            trunk.backward_ws(&mut ws, &mut tape, &mut slot, false);
            let mut params = trunk.parameters_mut();
            sum_slots(&mut params, [&slot[..]]);
            opt.step(&mut params);
        })
    });
}

fn bench_kernel_dispatch(c: &mut Criterion) {
    // Per-kernel comparison of the dispatched backends on the conv-GEMM
    // shape that dominates filter inference (16 output channels, K = 8·3²,
    // one 28×28 feature map): scalar vs every supported SIMD backend vs the
    // int8 GEMM the quantized filters run. `*_with` pins the backend
    // explicitly, so the rows are comparable regardless of what
    // `KernelBackend::active()` dispatched to.
    let (m, k, n) = (16usize, 72, 28 * 28);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.01 - 0.06).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
    let mut out_f32: Vec<f32> = Vec::new();
    for backend in KernelBackend::supported() {
        let name = format!("kernels/matmul 16x72x784 [{}]", backend.name());
        c.bench_function(&name, |bench| {
            bench.iter(|| {
                vmq_nn::kernels::matmul_into_with(backend, black_box(&a), m, k, black_box(&b), n, &mut out_f32)
            })
        });
    }

    let aq: Vec<i8> = (0..m * k).map(|i| (i % 251) as i8).collect();
    let bq: Vec<i8> = (0..k * n).map(|i| (i % 239) as i8).collect();
    let mut out_i32: Vec<i32> = Vec::new();
    for backend in KernelBackend::supported() {
        let name = format!("kernels/i8_gemm 16x72x784 [{}]", backend.name());
        c.bench_function(&name, |bench| {
            bench.iter(|| vmq_nn::quant::i8_gemm_with(backend, black_box(&aq), m, k, black_box(&bq), n, &mut out_i32))
        });
    }

    // Patch extraction: the f32 im2col (one scalar implementation for every
    // backend — it is memcpy-bound, documented in vmq_nn::kernels) and its
    // int8 patch-major counterpart.
    let spec = ConvSpec { in_channels: 8, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
    let input_f32: Vec<f32> = (0..8 * 28 * 28).map(|i| (i % 17) as f32 * 0.05).collect();
    let mut cols_f32: Vec<f32> = Vec::new();
    c.bench_function("kernels/im2col 8ch 28x28 [scalar]", |bench| {
        bench.iter(|| vmq_nn::ops::im2col_into(black_box(&input_f32), 28, 28, &spec, &mut cols_f32))
    });
    let input_i8: Vec<i8> = (0..8 * 28 * 28).map(|i| (i % 251) as i8).collect();
    let mut cols_i8: Vec<i8> = Vec::new();
    c.bench_function("kernels/im2row_i8 8ch 28x28", |bench| {
        bench.iter(|| vmq_nn::quant::im2row_i8(black_box(&input_i8), 28, 28, &spec, &mut cols_i8))
    });

    // Whole conv stack, f32 (auto dispatch) vs the int8 quantized twin: the
    // end-to-end shape the cascade-filter wall-clock numbers come from.
    let net = vmq_nn::Sequential::new(vec![
        Box::new(vmq_nn::Conv2d::same(8, 16, 3)),
        Box::new(vmq_nn::Activation::new(vmq_nn::Act::LeakyRelu(0.1))),
        Box::new(vmq_nn::MaxPool2d::new(2)),
        Box::new(vmq_nn::Conv2d::same(16, 16, 5)),
        Box::new(vmq_nn::Activation::new(vmq_nn::Act::Relu)),
        Box::new(vmq_nn::GlobalAvgPool::new()),
    ]);
    let input = Tensor::from_vec(input_f32.clone(), vec![8, 28, 28]);
    let mut ws = vmq_nn::Workspace::default();
    let active = KernelBackend::active().name();
    let name = format!("kernels/conv-stack f32 8ch 28x28 [{active}]");
    c.bench_function(&name, |bench| bench.iter(|| net.infer(black_box(&input), &mut ws)));
    let qnet = vmq_nn::QuantizedSequential::quantize(&net, std::slice::from_ref(&input));
    c.bench_function("kernels/conv-stack int8 8ch 28x28", |bench| {
        bench.iter(|| qnet.infer(black_box(&input), &mut ws))
    });
}

fn bench_rasterisation(c: &mut Criterion) {
    let profile = DatasetProfile::detrac();
    let ds = Dataset::generate(&profile, 8, 8, 3);
    let frame = ds.test()[0].clone();
    let raster = RasterConfig::default();
    c.bench_function("video/rasterise 56x56 (Detrac frame)", |bench| bench.iter(|| raster.render(black_box(&frame))));
}

fn bench_filter_inference(c: &mut Criterion) {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 8, 8, 5);
    let frame = ds.test()[0].clone();
    let config = FilterConfig::experiment(profile.class_list());

    let ic = IcFilter::new(config.clone());
    c.bench_function("filters/IC inference (untrained weights, 56px raster)", |bench| {
        bench.iter(|| ic.estimate(black_box(&frame)))
    });
    let od = OdFilter::new(config.clone());
    c.bench_function("filters/OD inference (untrained weights, 56px raster)", |bench| {
        bench.iter(|| od.estimate(black_box(&frame)))
    });
    let ic8 = QuantizedIcFilter::from_trained(&ic, ds.train());
    c.bench_function("filters/IC-INT8 inference (quantized twin, 56px raster)", |bench| {
        bench.iter(|| ic8.estimate(black_box(&frame)))
    });
    let cal = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 1);
    c.bench_function("filters/calibrated inference", |bench| bench.iter(|| cal.estimate(black_box(&frame))));

    let oracle = OracleDetector::perfect();
    c.bench_function("detect/oracle detect", |bench| bench.iter(|| oracle.detect(black_box(&frame))));
}

fn bench_query_paths(c: &mut Criterion) {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 8, 64, 7);
    let frame = ds.test()[0].clone();
    let cal = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 1);
    // The cascade decision as the shared runtime runs it: statements compile
    // into one atom table, a 32-frame batch (the pipeline default) of
    // estimates is evaluated once, and each statement ANDs its atom bits.
    // One q5, then 50 members of the q3/q5-shaped family `standing_many`
    // registers (2 car-count × 4 person-count atoms, with and without a
    // spatial atom): the second row should cost far less than 50× the first.
    let estimates = cal.estimate_batch(&ds.test()[..32]);
    let passed = |table: &AtomTable, statements: &[Box<[u32]>]| {
        let verdicts = table.evaluate(black_box(&estimates));
        let mut pass = Vec::new();
        statements
            .iter()
            .map(|atoms| {
                verdicts.pass_words(atoms, &mut pass);
                pass.iter().map(|w| w.count_ones() as usize).sum::<usize>()
            })
            .sum::<usize>()
    };
    let mut one = AtomTable::new();
    let q5 = [one.compile_select(&Query::paper_q5(), CascadeConfig::tolerant(), cal.threshold())];
    c.bench_function("query/cascade decision (q5)", |bench| bench.iter(|| passed(&one, &q5)));

    let mut family = Vec::new();
    for (car_op, cars) in [(CountOp::Exactly, 1), (CountOp::AtMost, 1)] {
        for (person_op, people) in
            [(CountOp::AtLeast, 1), (CountOp::AtLeast, 2), (CountOp::AtMost, 2), (CountOp::AtMost, 3)]
        {
            let base = Query::new("member").class_count(ObjectClass::Car, car_op, cars).class_count(
                ObjectClass::Person,
                person_op,
                people,
            );
            family.push(base.clone());
            for relation in SpatialRelation::ALL {
                let (car, person) = (ObjectRef::class(ObjectClass::Car), ObjectRef::class(ObjectClass::Person));
                family.push(base.clone().spatial(car, relation, person));
            }
            family.push(base.clone().in_region(ObjectRef::class(ObjectClass::Car), "lower-right", 1));
            family.push(base.in_region(ObjectRef::class(ObjectClass::Person), "upper-left", 1));
        }
    }
    let mut shared = AtomTable::new();
    let fifty: Vec<Box<[u32]>> = family[..50]
        .iter()
        .map(|query| shared.compile_select(query, CascadeConfig::tolerant(), cal.threshold()))
        .collect();
    c.bench_function("query/cascade fan-out (50 statements)", |bench| bench.iter(|| passed(&shared, &fifty)));

    let left = ClassGrid::from_boxes(56, &[vmq_video::BoundingBox::new(0.1, 0.4, 0.1, 0.1)]);
    let right = ClassGrid::from_boxes(56, &[vmq_video::BoundingBox::new(0.7, 0.4, 0.1, 0.1)]);
    c.bench_function("query/grid left-of (56x56)", |bench| {
        bench.iter(|| SpatialRelation::LeftOf.holds_grids(black_box(&left), black_box(&right)))
    });

    let q = Query::paper_q5();
    c.bench_function("query/ground-truth match (q5)", |bench| bench.iter(|| q.matches_ground_truth(black_box(&frame))));
}

fn bench_filter_batch(c: &mut Criterion) {
    // The cascade-filter hot path: one 32-frame batch through the learned
    // IC filter's workspace-based inference, sequential vs sharded, and
    // through the calibrated filter, which never shards. The sharded
    // variants must be bit-identical (proptested in vmq-filters); here they
    // are timed.
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 8, 32, 11);
    let frames = ds.test();
    let config = FilterConfig::experiment(profile.class_list());
    let ic = IcFilter::new(config);
    for workers in [1usize, 2, 4] {
        let name = format!("pipeline/filter_batch IC 32 frames, workers={workers}");
        c.bench_function(&name, |bench| bench.iter(|| ic.estimate_batch_sharded(black_box(frames), workers)));
    }
    let cal = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 1);
    c.bench_function("pipeline/filter_batch CAL 32 frames", |bench| {
        bench.iter(|| cal.estimate_batch(black_box(frames)))
    });
}

fn bench_operator_pipeline(c: &mut Criterion) {
    // End-to-end batched pipeline on an in-memory segment: calibrated filter
    // cascade in front of the oracle, per batch size.
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 8, 256, 9);
    let oracle = OracleDetector::perfect();
    for batch_size in [1usize, 32, 256] {
        let name = format!("pipeline/filtered q3 (256 frames, batch={batch_size})");
        c.bench_function(&name, |bench| {
            bench.iter(|| {
                let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 1);
                let exec = QueryExecutor::new(Query::paper_q3()).with_batch_size(batch_size);
                exec.run_filtered(black_box(ds.test()), &filter, &oracle, CascadeConfig::tolerant())
            })
        });
    }
}

fn bench_control_variates(c: &mut Criterion) {
    let y: Vec<f64> = (0..200).map(|i| ((i * 37) % 13) as f64 / 13.0).collect();
    let x: Vec<f64> = y.iter().map(|v| v * 0.9 + 0.05).collect();
    let z2: Vec<f64> = y.iter().map(|v| 1.0 - v).collect();
    c.bench_function("aggregate/single control variate (n=200)", |bench| {
        bench.iter(|| CvEstimate::from_pairs(black_box(&y), black_box(&x), 0.5))
    });
    let controls = vec![x.clone(), z2.clone()];
    c.bench_function("aggregate/multiple control variates (d=2, n=200)", |bench| {
        bench.iter(|| McvEstimate::from_samples(black_box(&y), black_box(&controls), &[0.5, 0.5]))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_nn_kernels, bench_kernel_dispatch, bench_rasterisation, bench_filter_inference, bench_query_paths, bench_filter_batch, bench_operator_pipeline, bench_control_variates
}
criterion_main!(benches);
