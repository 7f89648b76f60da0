//! End-to-end accelerator microbenchmarks: cycle-accurate single-image
//! inference and the vectorized functional datapath (underlies Table 5).
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vibnn_bnn::{Bnn, BnnConfig};
use vibnn_grng::BnnWallaceGrng;
use vibnn_hw::{AcceleratorConfig, CycleAccelerator, QuantizedBnn};
use vibnn_nn::Matrix;

fn setup() -> (QuantizedBnn, Matrix) {
    let bnn = Bnn::new(BnnConfig::paper_mnist(), 1);
    let mut calib = Matrix::zeros(8, 784);
    for (i, v) in calib.data_mut().iter_mut().enumerate() {
        *v = ((i % 97) as f32) / 97.0;
    }
    (QuantizedBnn::from_params(&bnn.params(), 8, &calib), calib)
}

fn benches(c: &mut Criterion) {
    let (q, calib) = setup();
    let mut group = c.benchmark_group("accelerator");
    group.sample_size(10);

    group.bench_function("cycle_accurate_image_mnist", |b| {
        let mut sim = CycleAccelerator::new(AcceleratorConfig::paper(), q.clone());
        let eps = BnnWallaceGrng::new(8, 256, 3);
        b.iter(|| std::hint::black_box(sim.infer_forked(calib.row(0), &eps)))
    });

    group.throughput(Throughput::Elements(8));
    group.bench_function("functional_batch8_mc1", |b| {
        let eps = BnnWallaceGrng::new(8, 256, 5);
        b.iter(|| std::hint::black_box(q.predict_proba_mc_parallel(&calib, 1, &eps, 1)))
    });
    group.finish();
}

criterion_group! {
    name = accel;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(accel);
