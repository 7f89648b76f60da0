//! NN kernel microbenchmarks: blocked matrix multiplies, BNN training
//! step, and Monte Carlo inference on 1, 2 and 4 workers.
use criterion::{criterion_group, criterion_main, Criterion};
use vibnn_bnn::{Bnn, BnnConfig};
use vibnn_grng::BoxMullerGrng;
use vibnn_nn::Matrix;

fn benches(c: &mut Criterion) {
    let a = Matrix::from_vec(64, 200, (0..64 * 200).map(|i| (i % 13) as f32 * 0.1).collect());
    let b = Matrix::from_vec(200, 200, (0..200 * 200).map(|i| (i % 7) as f32 * 0.1).collect());
    c.bench_function("matmul_64x200x200", |bch| {
        bch.iter(|| std::hint::black_box(a.matmul(&b)))
    });

    // Paper-scale first layer: 64-image batch × 784 features × 200 units,
    // crossing both tile boundaries of the blocked kernels.
    let xa = Matrix::from_vec(64, 784, (0..64 * 784).map(|i| (i % 11) as f32 * 0.05).collect());
    let wb = Matrix::from_vec(784, 200, (0..784 * 200).map(|i| (i % 17) as f32 * 0.02).collect());
    c.bench_function("matmul_64x784x200", |bch| {
        bch.iter(|| std::hint::black_box(xa.matmul(&wb)))
    });
    let g = Matrix::from_vec(64, 200, vec![0.01; 64 * 200]);
    c.bench_function("matmul_t_64x200_784x200", |bch| {
        // dL/dx shape: grad(64×200) · W(784×200)ᵀ → 64×784.
        bch.iter(|| std::hint::black_box(g.matmul_t(&wb)))
    });

    let x = Matrix::from_vec(32, 784, vec![0.5; 32 * 784]);
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    c.bench_function("bnn_train_batch_784_200_200_10", |bch| {
        let mut bnn = Bnn::new(BnnConfig::paper_mnist(), 1);
        bch.iter(|| std::hint::black_box(bnn.train_batch(&x, &y)))
    });

    // Monte Carlo ensemble on forked substreams (sample `s` on
    // `eps.fork(s)`) over 1, 2 and 4 workers. On a multi-core host the
    // 4-thread row should approach a 4× speedup; outputs are identical
    // across the rows regardless of core count.
    let bnn = Bnn::new(BnnConfig::new(&[64, 128, 128, 10]), 3);
    let mx = Matrix::from_vec(16, 64, (0..16 * 64).map(|i| (i % 9) as f32 * 0.1).collect());
    for threads in [1usize, 2, 4] {
        c.bench_function(&format!("bnn_mc16_parallel_{threads}t"), |bch| {
            let eps = BoxMullerGrng::new(5);
            bch.iter(|| {
                std::hint::black_box(bnn.predict_proba_mc_parallel(&mx, 16, &eps, threads))
            })
        });
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = kernels_target
}
fn kernels_target(c: &mut Criterion) { benches(c) }
criterion_main!(kernels);
