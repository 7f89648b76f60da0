//! Quickstart: train a small Bayesian neural network, deploy it on the
//! simulated VIBNN accelerator, and classify with uncertainty.
//!
//! Run with: `cargo run --release --example quickstart`

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::datasets::parkinson_original;
use vibnn::grng::BnnWallaceGrng;
use vibnn::VibnnBuilder;

fn main() {
    // 1. A synthetic stand-in for the Parkinson Speech dataset.
    let ds = parkinson_original(42);
    println!("dataset: {} ({} train / {} test, {} features)",
        ds.name, ds.train_len(), ds.test_len(), ds.features());

    // 2. Train a BNN with Bayes-by-Backprop.
    let mut bnn = Bnn::new(
        BnnConfig::new(&[ds.features(), 64, 64, ds.classes]).with_lr(2e-3),
        7,
    );
    for epoch in 0..15 {
        let r = bnn.train_epoch(&ds.train_x, &ds.train_y, 32);
        if epoch % 5 == 4 {
            println!("epoch {:2}: loss {:.3} train acc {:.3}", epoch + 1, r.loss, r.accuracy);
        }
    }

    // 3. Deploy: quantize to the 8-bit datapath and build the accelerator.
    let accel = VibnnBuilder::new(bnn.params())
        .bit_len(8)
        .mc_samples(8)
        .calibration(ds.train_x.rows_slice(0, 128))
        .build()
        .expect("valid deployment");

    // 4. Classify the test set on the hardware datapath, eps from the
    //    BNNWallace-GRNG exactly as the weight generator would.
    //    Monte Carlo sample `s` draws from the substream `eps.fork(s)`.
    let eps = BnnWallaceGrng::new(8, 256, 11);
    let sw_acc = bnn.evaluate_mean(&ds.test_x, &ds.test_y);
    let hw_acc = accel.evaluate_parallel(&ds.test_x, &ds.test_y, &eps, 1);
    println!("\nsoftware BNN accuracy: {sw_acc:.4}");
    println!("VIBNN hardware accuracy: {hw_acc:.4}");

    // 5. Performance model (paper Table 5 analogue for this network).
    println!("\nmodelled throughput: {:.0} images/s", accel.images_per_second());
    println!("modelled power:      {:.2} W", accel.power_w());
    println!("modelled efficiency: {:.0} images/J", accel.images_per_joule());
    let r = accel.resources();
    println!("resources: {} ALMs, {} DSPs, {} block bits", r.alms, r.dsps, r.block_bits);
}
