//! The small-data story (paper Figures 16/17 and the modified Parkinson
//! dataset): a BNN keeps generalizing where an FNN of the same size
//! overfits.
//!
//! Run with: `cargo run --release --example small_data`

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::datasets::parkinson_modified;
use vibnn::grng::BoxMullerGrng;
use vibnn::nn::{Mlp, MlpConfig};

fn main() {
    // 120 training samples, 920 test samples: the paper's "modified"
    // small-data split.
    let ds = parkinson_modified(21);
    println!("{}: {} train / {} test", ds.name, ds.train_len(), ds.test_len());

    let arch = [ds.features(), 64, 64, ds.classes];
    let mut fnn = Mlp::new(MlpConfig::new(&arch), 1);
    let mut bnn = Bnn::new(BnnConfig::new(&arch).with_lr(2e-3).with_kl_weight(1e-3), 2);

    println!("\nepoch | FNN train | FNN test | BNN train | BNN test");
    for epoch in 1..=30 {
        let fr = fnn.train_epoch(&ds.train_x, &ds.train_y, 16);
        let br = bnn.train_epoch(&ds.train_x, &ds.train_y, 16);
        if epoch % 5 == 0 {
            let eps = BoxMullerGrng::new(epoch as u64);
            let f_test = fnn.evaluate(&ds.test_x, &ds.test_y);
            let b_test = bnn.evaluate_mc_parallel(&ds.test_x, &ds.test_y, 8, &eps, 1);
            println!(
                "{epoch:5} | {:9.3} | {f_test:8.3} | {:9.3} | {b_test:8.3}",
                fr.accuracy, br.accuracy
            );
        }
    }
    println!("\nShape to expect (paper Fig. 16/17, Table 7): the FNN reaches");
    println!("perfect training accuracy but generalizes worse; the BNN's");
    println!("weight uncertainty regularizes it toward better test accuracy.");
}
