//! Uncertainty estimation: the motivating BNN capability. Compares the
//! predictive entropy of the deployed accelerator on in-distribution and
//! out-of-distribution inputs.
//!
//! Run with: `cargo run --release --example uncertainty`

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::datasets::{mnist_like_with, MnistLikeSpec};
use vibnn::grng::BnnWallaceGrng;
use vibnn::nn::Matrix;
use vibnn::VibnnBuilder;

fn entropy(probs: &[f32]) -> f64 {
    -probs
        .iter()
        .map(|&p| {
            let p = f64::from(p).max(1e-12);
            p * p.ln()
        })
        .sum::<f64>()
}

fn main() {
    let ds = mnist_like_with(
        MnistLikeSpec { train_size: 3000, test_size: 500, ..Default::default() },
        3,
    );
    let mut bnn = Bnn::new(
        BnnConfig::new(&[784, 128, 128, 10]).with_lr(2e-3),
        5,
    );
    for _ in 0..8 {
        bnn.train_epoch(&ds.train_x, &ds.train_y, 64);
    }
    let accel = VibnnBuilder::new(bnn.params())
        .mc_samples(16)
        .calibration(ds.train_x.rows_slice(0, 128))
        .build()
        .expect("valid deployment");

    // Monte Carlo sample `s` draws its weights from `eps.fork(s)`, so both
    // input sets below are scored by the same ensemble of weight samples.
    let eps = BnnWallaceGrng::new(8, 256, 9);
    // In-distribution: test images.
    let in_probs = accel.predict_proba_parallel(&ds.test_x.rows_slice(0, 50), &eps, 1);
    let in_entropy: f64 =
        (0..50).map(|r| entropy(in_probs.row(r))).sum::<f64>() / 50.0;

    // Out-of-distribution: uniform noise images.
    let mut noise = Matrix::zeros(50, 784);
    for (i, v) in noise.data_mut().iter_mut().enumerate() {
        *v = ((i * 2_654_435_761) % 1000) as f32 / 1000.0;
    }
    let ood_probs = accel.predict_proba_parallel(&noise, &eps, 1);
    let ood_entropy: f64 =
        (0..50).map(|r| entropy(ood_probs.row(r))).sum::<f64>() / 50.0;

    println!("mean predictive entropy, in-distribution:  {in_entropy:.3} nats");
    println!("mean predictive entropy, out-of-distribution: {ood_entropy:.3} nats");
    println!("(max possible for 10 classes: {:.3})", (10.0f64).ln());
    println!("\nThe BNN is less confident on inputs it has never seen — the");
    println!("model-uncertainty property that motivates VIBNN (paper Section 1).");
}
