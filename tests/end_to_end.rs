//! Cross-crate integration: train -> quantize -> deploy -> verify the full
//! pipeline on a realistic (synthetic) dataset.

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::datasets::parkinson_original;
use vibnn::grng::{BnnWallaceGrng, BoxMullerGrng, ParallelRlfGrng, StreamFork};
use vibnn::nn::Matrix;
use vibnn::{Vibnn, VibnnBuilder};

#[test]
fn train_quantize_deploy_parkinson() {
    let ds = parkinson_original(1);
    let mut bnn = Bnn::new(
        BnnConfig::new(&[ds.features(), 32, 32, ds.classes]).with_lr(2e-3),
        2,
    );
    for _ in 0..12 {
        bnn.train_epoch(&ds.train_x, &ds.train_y, 32);
    }
    let sw = bnn.evaluate_mean(&ds.test_x, &ds.test_y);
    assert!(sw > 0.7, "software accuracy {sw}");

    let accel = VibnnBuilder::new(bnn.params())
        .bit_len(8)
        .mc_samples(8)
        .calibration(ds.train_x.rows_slice(0, 64))
        .build()
        .expect("valid deployment");
    let eps = BnnWallaceGrng::new(8, 256, 3);
    let hw = accel.evaluate_parallel(&ds.test_x, &ds.test_y, &eps, 1);
    assert!(
        hw > sw - 0.1,
        "hardware accuracy {hw} degraded too far from software {sw}"
    );
}

#[test]
fn cycle_accurate_equals_functional_on_trained_network() {
    let ds = parkinson_original(5);
    let mut bnn = Bnn::new(BnnConfig::new(&[ds.features(), 16, 2]), 6);
    for _ in 0..4 {
        bnn.train_epoch(&ds.train_x, &ds.train_y, 32);
    }
    let mut accel = VibnnBuilder::new(bnn.params())
        .mc_samples(3)
        .calibration(ds.train_x.rows_slice(0, 32))
        .build()
        .expect("valid deployment");
    // Sample `s` draws from `eps.fork(s)` on both paths, so the functional
    // and ticked datapaths see the same weights.
    fn check<S: StreamFork + Sync>(accel: &mut Vibnn, x: &Matrix, r: usize, eps: &S) {
        let f = accel.predict_proba_parallel(x, eps, 1);
        let (t, _, _) = accel.simulator().infer_forked(x.row(0), eps);
        for (c, &p) in f.row(0).iter().enumerate() {
            assert_eq!(t[c].to_bits(), p.to_bits(), "row {r} class {c}: {} vs {p}", t[c]);
        }
    }
    for r in 0..5 {
        let (x, seed) = (ds.test_x.rows_slice(r, r + 1), 100 + r as u64);
        check(&mut accel, &x, r, &BoxMullerGrng::new(seed));
        check(&mut accel, &x, r, &ParallelRlfGrng::new(64, seed));
        check(&mut accel, &x, r, &BnnWallaceGrng::new(8, 256, seed));
    }
}

#[test]
fn accelerator_models_stay_consistent_across_grngs() {
    let ds = parkinson_original(9);
    let bnn = Bnn::new(BnnConfig::new(&[ds.features(), 16, 2]), 10);
    for kind in [vibnn::grng::GrngKind::Rlf, vibnn::grng::GrngKind::BnnWallace] {
        let accel = VibnnBuilder::new(bnn.params())
            .grng(kind)
            .calibration(ds.train_x.rows_slice(0, 16))
            .build()
            .expect("valid deployment");
        assert!(accel.images_per_second() > 0.0);
        assert!(accel.power_w() > vibnn::hw::power::P_STATIC_W);
        assert!(accel.resources().fits_device());
    }
}
