//! Smoke test for the `vibnn` public API surface: the root-crate types
//! (`Vibnn`, `VibnnBuilder`, `Pipeline`, `train_and_deploy`, the
//! checkpoint entry points) and the subsystem re-exports (`bnn`, `grng`,
//! `hw`, …) must resolve and construct. This guards the workspace wiring
//! in `Cargo.toml` — a broken re-export or dependency edge fails here
//! before any behavioural test runs.

use vibnn::bnn::{Bnn, BnnConfig, LrSchedule};
use vibnn::grng::{BnnWallaceGrng, GaussianSource, ParallelRlfGrng};
use vibnn::hw::{AcceleratorConfig, CycleAccelerator, QuantizedBnn, Schedule};
use vibnn::nn::Matrix;
use vibnn::{train_and_deploy, Pipeline, Vibnn, VibnnBuilder, VibnnError};

/// A tiny 6-3-2 network: big enough to exercise every layer type,
/// small enough that the whole smoke test runs in milliseconds.
fn tiny_bnn() -> Bnn {
    Bnn::new(BnnConfig::new(&[6, 3, 2]), 7)
}

/// A unique scratch path in the system temp directory.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vibnn_{}_{}", std::process::id(), name))
}

#[test]
fn builder_constructs_vibnn_from_params() {
    let bnn = tiny_bnn();
    let calib = Matrix::zeros(4, 6);
    let accel: Vibnn = VibnnBuilder::new(bnn.params())
        .bit_len(8)
        .mc_samples(2)
        .calibration(calib)
        .build()
        .expect("valid deployment");
    assert_eq!(accel.classes(), 2);
    assert!(accel.images_per_second() > 0.0);
    assert!(accel.power_w() > 0.0);
}

#[test]
fn builder_reports_typed_errors() {
    // Missing calibration.
    assert!(matches!(
        VibnnBuilder::new(tiny_bnn().params()).build(),
        Err(VibnnError::MissingCalibration)
    ));
    // Empty layer list (the old `classes()` panic path).
    let empty = vibnn::bnn::BnnParams {
        weight_mu: vec![],
        weight_sigma: vec![],
        bias_mu: vec![],
        bias_sigma: vec![],
    };
    assert!(matches!(
        VibnnBuilder::new(empty)
            .calibration(Matrix::zeros(1, 1))
            .build(),
        Err(VibnnError::BadTopology(_))
    ));
    // Calibration width mismatch.
    assert!(matches!(
        VibnnBuilder::new(tiny_bnn().params())
            .calibration(Matrix::zeros(4, 5))
            .build(),
        Err(VibnnError::ShapeMismatch { .. })
    ));
}

#[test]
fn vibnn_predicts_with_both_paper_grngs() {
    let bnn = tiny_bnn();
    let accel = VibnnBuilder::new(bnn.params())
        .calibration(Matrix::zeros(4, 6))
        .build()
        .expect("valid deployment");
    let x = Matrix::zeros(3, 6);

    let rlf = ParallelRlfGrng::new(4, 11);
    let proba = accel.predict_proba_parallel(&x, &rlf, 1);
    assert_eq!((proba.rows(), proba.cols()), (3, 2));

    let wallace = BnnWallaceGrng::new(2, 64, 13);
    let proba = accel.predict_proba_parallel(&x, &wallace, 1);
    assert_eq!((proba.rows(), proba.cols()), (3, 2));
}

#[test]
fn train_and_deploy_round_trip() {
    let x = Matrix::zeros(8, 6);
    let y: Vec<usize> = (0..8).map(|i| i % 2).collect();
    let (trained, accel) = train_and_deploy(tiny_bnn(), &x, &y, 1, 4).expect("deploy");
    assert_eq!(trained.params().layer_sizes(), &[6, 3, 2]);
    let acc = accel.evaluate_parallel(&x, &y, &ParallelRlfGrng::new(4, 3), 1);
    assert!((0.0..=1.0).contains(&acc));
    // Bad inputs are typed errors, as in `Pipeline`, not panics.
    assert!(matches!(
        train_and_deploy(tiny_bnn(), &x, &y, 1, 0),
        Err(VibnnError::ShapeMismatch {
            context: "batch size",
            ..
        })
    ));
    let bad_labels: Vec<usize> = (0..8).map(|i| if i == 5 { 2 } else { i % 2 }).collect();
    assert!(matches!(
        train_and_deploy(tiny_bnn(), &x, &bad_labels, 1, 4),
        Err(VibnnError::LabelOutOfRange {
            label: 2,
            classes: 2
        })
    ));
}

#[test]
fn pipeline_trains_checkpoints_and_deploys() {
    let x = Matrix::zeros(8, 6);
    let y: Vec<usize> = (0..8).map(|i| i % 2).collect();
    let path = temp_path("pipeline_smoke.ckpt");
    let deployed = Pipeline::new(BnnConfig::new(&[6, 3, 2]))
        .seed(7)
        .epochs(2)
        .batch(4)
        .lr_schedule(LrSchedule::StepDecay { every: 1, gamma: 0.5 })
        .train(&x, &y)
        .expect("train")
        .checkpoint(&path)
        .expect("checkpoint")
        .deploy(Matrix::zeros(4, 6))
        .expect("deploy");
    assert_eq!(deployed.vibnn.classes(), 2);
    assert_eq!(deployed.reports.len(), 2);
    // The checkpoint file is a loadable trainer snapshot of the same
    // network.
    let restored = Bnn::load(&path).expect("load");
    for (a, b) in restored.layers().iter().zip(deployed.bnn.layers()) {
        assert_eq!(a.mu().data(), b.mu().data());
        assert_eq!(a.rho().data(), b.rho().data());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trainer_checkpoint_resumes_bit_identically() {
    // Train 2 epochs, checkpoint, then compare: (a) the original network
    // continuing uninterrupted vs (b) a network loaded from the file —
    // per-epoch reports and final parameters must match bit for bit.
    let mut rng_x = Matrix::zeros(24, 6);
    for (i, v) in rng_x.data_mut().iter_mut().enumerate() {
        *v = ((i * 37) % 17) as f32 / 17.0 - 0.5;
    }
    let y: Vec<usize> = (0..24).map(|i| i % 2).collect();
    let path = temp_path("resume.ckpt");

    let mut a = Bnn::new(BnnConfig::new(&[6, 4, 2]).with_lr(0.02), 13);
    for _ in 0..2 {
        a.train_epoch(&rng_x, &y, 8);
    }
    a.save(&path).expect("save");
    let mut b = Bnn::load(&path).expect("load");
    for _ in 0..2 {
        let ra = a.train_epoch(&rng_x, &y, 8);
        let rb = b.train_epoch(&rng_x, &y, 8);
        assert_eq!(ra, rb, "resumed epoch diverged from uninterrupted run");
    }
    for (la, lb) in a.layers().iter().zip(b.layers()) {
        assert_eq!(la.mu().data(), lb.mu().data());
        assert_eq!(la.rho().data(), lb.rho().data());
        assert_eq!(la.bias_mu(), lb.bias_mu());
        assert_eq!(la.bias_rho(), lb.bias_rho());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn params_and_deployment_checkpoints_round_trip() {
    let bnn = tiny_bnn();
    let params_path = temp_path("params.ckpt");
    let deploy_path = temp_path("deploy.ckpt");
    // Params (kind 1).
    let p = bnn.params();
    p.save(&params_path).expect("save params");
    let q = vibnn::bnn::BnnParams::load(&params_path).expect("load params");
    for l in 0..p.layers() {
        assert_eq!(p.weight_mu[l].data(), q.weight_mu[l].data());
        assert_eq!(p.weight_sigma[l].data(), q.weight_sigma[l].data());
    }
    // Deployment (kind 3): loaded instance predicts bit-identically.
    let calib = Matrix::zeros(4, 6);
    let a = VibnnBuilder::new(p)
        .mc_samples(2)
        .calibration(calib.clone())
        .build()
        .expect("build");
    a.save(&deploy_path).expect("save deployment");
    let b = Vibnn::load(&deploy_path).expect("load deployment");
    let eps = vibnn::grng::ZigguratGrng::new(3);
    assert_eq!(
        a.predict_proba_parallel(&calib, &eps, 2).data(),
        b.predict_proba_parallel(&calib, &eps, 2).data()
    );
    // Kinds are enforced: a deployment file is not a trainer file.
    assert!(matches!(
        Bnn::load(&deploy_path),
        Err(vibnn::bnn::CheckpointError::WrongKind { .. })
    ));
    std::fs::remove_file(&params_path).ok();
    std::fs::remove_file(&deploy_path).ok();
}

#[test]
fn hw_re_exports_construct() {
    let cfg = AcceleratorConfig::paper();
    let sched = Schedule::new(&cfg, &[6, 3, 2]);
    assert!(sched.cycles_per_sample() > 0);

    let bnn = tiny_bnn();
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(4, 6));
    let mut sim = CycleAccelerator::new(cfg, q);
    let eps = BnnWallaceGrng::new(2, 64, 5);
    let (out, members, _) = sim.infer_forked(Matrix::zeros(1, 6).row(0), &eps);
    assert_eq!(out.len(), 2);
    assert_eq!(members.len(), sim.config().mc_samples);
}

#[test]
fn sampling_engine_api_resolves() {
    use vibnn::grng::{Buffered, StreamFork};
    let bnn = tiny_bnn();
    let accel = VibnnBuilder::new(bnn.params())
        .mc_samples(2)
        .calibration(Matrix::zeros(4, 6))
        .build()
        .expect("valid deployment");
    let x = Matrix::zeros(3, 6);
    let eps = ParallelRlfGrng::new(4, 17);
    // Parallel MC through the root-crate surface, bit-identical per
    // thread count.
    let a = accel.predict_proba_parallel(&x, &eps, 1);
    let b = accel.predict_proba_parallel(&x, &eps, 2);
    assert_eq!(a.data(), b.data());
    // Fork + buffered adapter resolve through the re-exports.
    let mut sub = Buffered::new(eps.fork(3));
    assert!(sub.next_gaussian().is_finite());
    assert!(vibnn::bnn::vibnn_threads() >= 1);
}

#[test]
fn serve_engine_api_resolves() {
    use vibnn::serve::{ServeConfig, ServeEngine};
    let accel = VibnnBuilder::new(tiny_bnn().params())
        .mc_samples(2)
        .calibration(Matrix::zeros(4, 6))
        .build()
        .expect("valid deployment");
    let engine = ServeEngine::new(accel, ServeConfig::default()).expect("engine");
    let results = engine.submit_batch(&Matrix::zeros(3, 6)).expect("serve");
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(|r| r.proba.len() == 2));
    // Full determinism coverage lives in tests/serve_determinism.rs.
}

#[test]
fn subsystem_re_exports_resolve() {
    // One representative symbol per re-exported crate, so a dropped
    // dependency edge in the root manifest is caught by name.
    let _ = vibnn::rng::SplitMix64::new(1);
    let _ = vibnn::stats::Moments::default();
    let _ = vibnn::fixed::QFormat::new(8, 4);
    let ds = vibnn::datasets::parkinson_original(17);
    assert_eq!(ds.train_x.rows(), ds.train_y.len());
    let mut src = vibnn::grng::BoxMullerGrng::new(2);
    let mut buf = [0.0; 4];
    src.fill(&mut buf);
    assert!(buf.iter().all(|v| v.is_finite()));
}
