//! Serving and checkpoints: train through the `Pipeline` builder, persist
//! a resumable checkpoint and an exact deployment snapshot, then serve
//! single-row requests through the queued front end (a one-replica
//! `ClusterEngine`), backing off on `QueueFull`.
//!
//! Run with: `cargo run --release --example serving`

use vibnn::bnn::{BnnConfig, LrSchedule};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::datasets::parkinson_original;
use vibnn::{Pipeline, Vibnn, VibnnError};

fn main() -> Result<(), VibnnError> {
    let ds = parkinson_original(42);
    let ckpt_dir = std::env::temp_dir();
    let trainer_ckpt = ckpt_dir.join("vibnn_serving_example_trainer.ckpt");
    let deploy_ckpt = ckpt_dir.join("vibnn_serving_example_deploy.ckpt");

    // 1. Train with a cosine LR schedule and early stopping, checkpoint
    //    the full training state, and deploy — one fallible chain.
    let deployed = Pipeline::new(
        BnnConfig::new(&[ds.features(), 48, 48, ds.classes]).with_lr(2e-3),
    )
    .seed(7)
    .epochs(12)
    .batch(32)
    .lr_schedule(LrSchedule::Cosine {
        total_epochs: 12,
        min_lr: 2e-4,
    })
    .early_stop(4, 0.0)
    .train(&ds.train_x, &ds.train_y)?
    .checkpoint(&trainer_ckpt)?
    .deploy(ds.train_x.rows_slice(0, 128))?;
    println!(
        "trained {} epochs{} (final loss {:.3}), deployed {} classes",
        deployed.reports.len(),
        if deployed.reports.len() < 12 { " (early stop)" } else { "" },
        deployed.reports.last().map_or(f64::NAN, |r| r.loss),
        deployed.vibnn.classes()
    );

    // 2. Ship an exact deployment snapshot and reload it — predictions
    //    from the loaded instance are bit-identical.
    deployed.vibnn.save(&deploy_ckpt)?;
    let vibnn = Vibnn::load(&deploy_ckpt)?;
    println!("deployment checkpoint round-trip: {} bytes", std::fs::metadata(&deploy_ckpt)?.len());

    // 3. Serve the test set as single-row requests through the queued
    //    front end: one replica, so one dispatcher micro-batching the
    //    queue.
    let cluster = ClusterEngine::new(
        vibnn,
        ClusterConfig {
            replicas: 1,
            max_batch: 16,
            max_queue: 256,
            workers: 0,
            ..ClusterConfig::default()
        },
    )?;
    let n = ds.test_len().min(64);
    let mut ids = Vec::with_capacity(n);
    for r in 0..n {
        // Informed backoff: `QueueFull` reports how deep the queue is, so
        // the retry wait scales with the backlog instead of blind-spinning.
        let id = loop {
            match cluster.submit(ds.test_x.row(r).to_vec()) {
                Ok(id) => break id,
                Err(VibnnError::QueueFull { depth, capacity }) => {
                    let backlog = depth as f64 / capacity.max(1) as f64;
                    std::thread::sleep(std::time::Duration::from_micros(
                        (50.0 * backlog) as u64 + 1,
                    ));
                }
                Err(e) => return Err(e),
            }
        };
        ids.push(id);
    }
    let mut correct = 0usize;
    let mut mean_entropy = 0.0;
    for (r, id) in ids.into_iter().enumerate() {
        let res = cluster.wait(id)?;
        correct += usize::from(res.argmax == ds.test_y[r]);
        mean_entropy += res.entropy;
    }
    cluster.shutdown();
    println!(
        "served {n} requests: accuracy {:.3}, mean predictive entropy {:.3} nats",
        correct as f64 / n as f64,
        mean_entropy / n as f64
    );

    std::fs::remove_file(&trainer_ckpt).ok();
    std::fs::remove_file(&deploy_ckpt).ok();
    Ok(())
}
