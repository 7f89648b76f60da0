//! Ablation (reproduction finding): deployment accuracy vs the GRNG used
//! as the weight generator's eps source. A single RLF lane is a popcount
//! random walk; its within-sample correlation collapses accuracy even
//! though its marginal stability (Table 1) is excellent.
use vibnn_bench::{pct, print_table, RunScale};
use vibnn_bnn::{Bnn, BnnConfig};
use vibnn_datasets::{mnist_like_with, Dataset, MnistLikeSpec};
use vibnn_grng::{BnnWallaceGrng, BoxMullerGrng, ParallelRlfGrng, StreamFork};
use vibnn_hw::QuantizedBnn;

/// One table row: test accuracy with Monte Carlo sample `s` drawing its
/// weights from `src.fork(s)`, on one thread.
fn row<S: StreamFork + Sync>(
    name: &str,
    q: &QuantizedBnn,
    ds: &Dataset,
    mc: usize,
    src: S,
) -> Vec<String> {
    let acc = q.evaluate_mc_parallel(&ds.test_x, &ds.test_y, mc, &src, 1);
    vec![name.to_owned(), pct(acc)]
}

fn main() {
    let scale = RunScale::from_env().learn();
    let ds = mnist_like_with(
        MnistLikeSpec {
            train_size: scale.mnist_train,
            test_size: scale.mnist_test,
            ..Default::default()
        },
        5,
    );
    let arch = [ds.features(), scale.hidden, scale.hidden, ds.classes];
    let batch = 64;
    let batches = ds.train_len().div_ceil(batch);
    let mut bnn = Bnn::new(
        BnnConfig::new(&arch)
            .with_lr(2e-3)
            .with_kl_weight((1.0 / batches as f32).min(2e-3))
            .with_sigma_init(0.05)
            .with_prior_std(0.3),
        9,
    );
    for _ in 0..scale.epochs {
        bnn.train_epoch(&ds.train_x, &ds.train_y, batch);
    }
    let calib = ds.train_x.rows_slice(0, 128);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
    let mc = scale.mc_samples;
    let rows = [
        row("ideal iid (Box-Muller)", &q, &ds, mc, BoxMullerGrng::new(7)),
        row("BNNWallace 8x256", &q, &ds, mc, BnnWallaceGrng::new(8, 256, 7)),
        row("RLF 64 lanes (interleaved)", &q, &ds, mc, ParallelRlfGrng::new(64, 7)),
        row("RLF 64 lanes (no interleaver)", &q, &ds, mc, ParallelRlfGrng::without_interleaver(64, 7)),
        row("RLF 1024 lanes", &q, &ds, mc, ParallelRlfGrng::new(1024, 7)),
        row("RLF 4096 lanes", &q, &ds, mc, ParallelRlfGrng::new(4096, 7)),
    ];
    println!("software float BNN (mean weights): {}", pct(bnn.evaluate_mean(&ds.test_x, &ds.test_y)));
    print_table(
        "Ablation: 8-bit hardware accuracy vs eps source",
        &["eps source", "accuracy"],
        &rows,
    );
}
