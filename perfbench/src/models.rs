//! The workloads' models and data. Models and evaluation sets come from
//! fixed seeds, so `accuracy` is the same on every run; only the request
//! inputs depend on `--seed`.

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::datasets::{mnist_like_with, MnistLikeSpec, SynthSpec};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::Matrix;
use vibnn::rng::{BitSource, SplitMix64};
use vibnn::serve::ServeConfig;
use vibnn::{
    BackendKind, PolicySpec, Priority, ServeResult, SubmitOptions, Vibnn, VibnnBuilder, VibnnError,
};

use crate::{bits, fail};

/// Seed of every model's training and evaluation data.
pub const DATA_SEED: u64 = 0xB1B0_0001;
/// Seed of the cluster ε source (and so of every replica's substream).
pub const CLUSTER_SEED: u64 = 0xC1A5_7E12;
/// Monte Carlo samples per prediction (the deployment default).
pub const MC_SAMPLES: usize = 8;
/// Rows in one update's training batch.
pub const UPDATE_ROWS: usize = 256;

/// A trained model, its deployment, and the data around it.
pub struct Model {
    pub bnn: Bnn,
    pub vibnn: Vibnn,
    /// The deployment as a kind-3 checkpoint.
    pub bytes: Vec<u8>,
    pub policy: PolicySpec,
    pub calib: Matrix,
    pub eval_x: Matrix,
    pub eval_y: Vec<usize>,
    pub update_x: Matrix,
    pub update_y: Vec<usize>,
    pub train_batch: usize,
}

impl Model {
    fn new(
        sizes: &[usize],
        lr: f32,
        (train_x, train_y): (Matrix, Vec<usize>),
        (eval_x, eval_y): (Matrix, Vec<usize>),
        epochs: usize,
        train_batch: usize,
        policy: PolicySpec,
    ) -> Self {
        let mut bnn = Bnn::new(BnnConfig::new(sizes).with_lr(lr), DATA_SEED);
        for _ in 0..epochs {
            bnn.train_epoch_mc_threads(&train_x, &train_y, train_batch, 1, 1);
        }
        let calib = train_x.rows_slice(0, 128);
        let vibnn = deploy(&bnn, &calib, policy);
        let bytes = vibnn.to_bytes();
        Self {
            bnn,
            vibnn,
            bytes,
            policy,
            calib,
            eval_x,
            eval_y,
            update_x: train_x.rows_slice(0, UPDATE_ROWS),
            update_y: train_y[..UPDATE_ROWS].to_vec(),
            train_batch,
        }
    }

    /// One update: fine-tune a copy of the trained network for one epoch
    /// on `(x, y)` and deploy it.
    pub fn retrain(&self, x: &Matrix, y: &[usize]) -> (Bnn, Vibnn) {
        let mut bnn = self.bnn.clone();
        bnn.train_epoch_mc_threads(x, y, self.train_batch, 1, 1);
        let vibnn = deploy(&bnn, &self.calib, self.policy);
        (bnn, vibnn)
    }

    /// A one-replica cluster with every thread count fixed at 1.
    pub fn cluster(&self, vibnn: Vibnn, max_batch: usize) -> ClusterEngine {
        ClusterEngine::with_eps(vibnn, cluster_config(max_batch, self.policy), cluster_eps())
            .unwrap_or_else(|e| fail(format!("cluster: {e}")))
    }
}

pub fn deploy(bnn: &Bnn, calib: &Matrix, policy: PolicySpec) -> Vibnn {
    VibnnBuilder::new(bnn.params())
        .mc_samples(MC_SAMPLES)
        .calibration(calib.clone())
        .backend(BackendKind::Quantized)
        .sampling_policy(policy)
        .build()
        .unwrap_or_else(|e| fail(format!("deploy: {e}")))
}

pub fn cluster_eps() -> ZigguratGrng {
    ZigguratGrng::new(CLUSTER_SEED)
}

/// The single-engine equivalent of `cluster_config`.
pub fn serve_config(max_batch: usize, policy: PolicySpec) -> ServeConfig {
    ServeConfig {
        max_batch,
        max_queue: 4096,
        workers: 1,
        backend: Some(BackendKind::Quantized),
        policy: Some(policy),
    }
}

/// One replica, one worker, no spill: the load comes from the client.
pub fn cluster_config(max_batch: usize, policy: PolicySpec) -> ClusterConfig {
    ClusterConfig {
        replicas: 1,
        max_batch,
        max_queue: 4096,
        workers: 1,
        spill: false,
        batch_skip_bound: 4,
        backend: Some(BackendKind::Quantized),
        policy: Some(policy),
    }
}

fn tabular_spec(classes: usize, separability: f64) -> SynthSpec {
    SynthSpec::new("perfbench-tabular", 26, classes, 1024, 512).with_separability(separability)
}

/// Request-stream step for a seed: far from the fixed training steps.
pub fn request_step(seed: u64) -> u64 {
    (1 << 32) | (seed & 0xFFFF_FFFF)
}

/// The `[26, 64, 2]` tabular model, and `rows` request rows from `seed`.
pub fn tabular(seed: u64, rows: usize) -> (Model, Matrix) {
    let spec = tabular_spec(2, 0.55);
    let model = Model::new(
        &[26, 64, 2],
        0.01,
        spec.generate_batch(DATA_SEED, 0, 1024),
        spec.generate_batch(DATA_SEED, 1, 512),
        10,
        32,
        PolicySpec::ExactN,
    );
    let requests = spec.generate_batch(DATA_SEED, request_step(seed), rows).0;
    (model, requests)
}

/// The paper's 784-200-200-10 network on MNIST-like digits, and `rows`
/// request rows drawn from the digit pool by `seed`.
pub fn mnist(seed: u64, rows: usize) -> (Model, Matrix) {
    let data = mnist_like_with(
        MnistLikeSpec {
            train_size: 2048,
            test_size: 256,
            ..MnistLikeSpec::default()
        },
        DATA_SEED,
    );
    let model = Model::new(
        &[784, 200, 200, 10],
        0.003,
        (data.train_x.clone(), data.train_y.clone()),
        (data.test_x, data.test_y),
        4,
        64,
        PolicySpec::ExactN,
    );
    let mut rng = SplitMix64::new(seed ^ 0x0D16_175E_ED00);
    let picks: Vec<usize> = (0..rows)
        .map(|_| (rng.next_u64() % data.train_x.rows() as u64) as usize)
        .collect();
    (model, data.train_x.select_rows(&picks))
}

/// The `[26, 64, 4]` model the adaptive workload starts from.
pub fn drift_base(policy: PolicySpec) -> Model {
    let spec = drift_spec();
    Model::new(
        &[26, 64, 4],
        0.01,
        spec.generate_batch(DATA_SEED, 0, 1024),
        spec.generate_batch(DATA_SEED, 1, 512),
        10,
        32,
        policy,
    )
}

pub fn drift_spec() -> SynthSpec {
    tabular_spec(4, 1.0)
}

/// The in-process reference for `ExactN`: the deployment's batched
/// Monte Carlo path on the cluster's replica ε substream.
pub fn exact_reference(vibnn: &Vibnn, x: &Matrix, eps: &ZigguratGrng) -> Vec<Vec<u32>> {
    let proba = vibnn.predict_proba_parallel(x, eps, 1);
    (0..proba.rows()).map(|r| bits(proba.row(r))).collect()
}

/// One request's rows, as a matrix and as the wire client takes them.
#[derive(Clone)]
pub struct Frame {
    pub x: Matrix,
    pub rows: Vec<Vec<f32>>,
}

/// Splits `x` into consecutive frames of `rows` rows.
pub fn frames(x: &Matrix, rows: usize) -> Vec<Frame> {
    (0..x.rows() / rows)
        .map(|f| {
            let x = x.rows_slice(f * rows, (f + 1) * rows);
            let rows = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
            Frame { x, rows }
        })
        .collect()
}

/// Submits every row of `frame` on the lane `lane(row)` picks, then waits
/// for each reply.
pub fn submit_and_wait(
    cluster: &ClusterEngine,
    frame: &Frame,
    lane: fn(usize) -> Priority,
) -> Vec<Result<ServeResult, VibnnError>> {
    let ids: Vec<_> = frame
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let opts = SubmitOptions {
                priority: lane(i),
                deadline: None,
            };
            cluster.submit_with(row.clone(), opts)
        })
        .collect();
    ids.into_iter()
        .map(|id| id.and_then(|id| cluster.wait(id)))
        .collect()
}

/// Share of `predicted` equal to `labels`.
pub fn accuracy(predicted: &[usize], labels: &[usize]) -> f64 {
    let hits = predicted.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / labels.len() as f64
}
