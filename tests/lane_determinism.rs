//! The fixed-lane accumulation contract (PR 7), pinned end to end:
//!
//! One accumulation rule governs every float reduction in the workspace —
//! `LANES` independent partial-sum chains, element `k` belonging to lane
//! `k % LANES`, lanes folded in ascending lane order. Because lane
//! membership is a function of the data index alone (never of the thread
//! count or schedule), every path built on the rule is bit-identical at
//! 1/2/4 threads. The retained pre-lane single-chain kernels
//! (`vibnn_nn::matrix::single_chain`, the `single-chain-oracle` feature)
//! serve as the cross-check oracle: same terms, different association, so
//! the two agree within floating-point reassociation tolerance.
//!
//! Run explicitly by `ci.sh`.

use proptest::prelude::*;
use vibnn::bnn::{reduce_mean, replica_source, Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::hw::QuantizedBnn;
use vibnn::nn::matrix::single_chain;
use vibnn::nn::{GaussianInit, Matrix, LANES};
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::{Vibnn, VibnnBuilder};

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = GaussianInit::new(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.next_gaussian() as f32;
    }
    m
}

/// Relative-error agreement between a lane kernel and the single-chain
/// oracle: identical terms, different association order.
fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: row mismatch");
    assert_eq!(got.cols(), want.cols(), "{what}: col mismatch");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let tol = 1e-4f32.max(w.abs() * 1e-4);
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i} diverged: lane {g} vs single-chain {w}"
        );
    }
}

#[test]
fn lane_kernels_agree_with_single_chain_oracle() {
    // Inner dimensions straddling multiples of LANES exercise both the
    // strip loops and the scalar tails.
    for (m, k, n, seed) in [(3, 5, 4, 1u64), (7, 64, 9, 2), (5, 131, 12, 3), (1, 200, 17, 4)] {
        let a = filled(m, k, seed);
        let b = filled(k, n, seed + 100);
        assert_close(&a.matmul(&b), &single_chain::matmul(&a, &b), "matmul");
        let at = filled(k, m, seed + 200);
        assert_close(&at.t_matmul(&b), &single_chain::t_matmul(&at, &b), "t_matmul");
        let bt = filled(n, k, seed + 300);
        assert_close(&a.matmul_t(&bt), &single_chain::matmul_t(&a, &bt), "matmul_t");
        let cols = single_chain::col_sums(&a);
        let mut got = vec![0.0f32; a.cols()];
        a.col_sums_into(&mut got);
        for (i, (g, w)) in got.iter().zip(&cols).enumerate() {
            let tol = 1e-4f32.max(w.abs() * 1e-4);
            assert!((g - w).abs() <= tol, "col_sums element {i}: {g} vs {w}");
        }
    }
}

#[test]
fn matmul_t_matches_the_explicit_lane_reference_bitwise() {
    // The contract itself, not just oracle closeness: element k of each
    // dot product goes to lane k % LANES, lanes fold in ascending order.
    let a = filled(4, 77, 11);
    let b = filled(6, 77, 12);
    let got = a.matmul_t(&b);
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut lanes = [0.0f32; LANES];
            for k in 0..a.cols() {
                lanes[k % LANES] += a[(i, k)] * b[(j, k)];
            }
            let mut want = 0.0f32;
            for l in lanes {
                want += l;
            }
            assert_eq!(
                got[(i, j)].to_bits(),
                want.to_bits(),
                "dot ({i},{j}) broke the lane rule"
            );
        }
    }
}

fn toy_data(n: usize, features: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let x = filled(n, features, seed);
    let y = (0..n)
        .map(|r| {
            let s: f32 = x.row(r).iter().sum();
            usize::from(s > 0.0) + usize::from(s > 1.5)
        })
        .collect();
    (x, y)
}

/// Every trained tensor, bit-exact.
fn param_bits(bnn: &Bnn) -> Vec<u32> {
    let p = bnn.params();
    let mut bits = Vec::new();
    for m in p.weight_mu.iter().chain(&p.weight_sigma) {
        bits.extend(m.data().iter().map(|v| v.to_bits()));
    }
    for v in p.bias_mu.iter().chain(&p.bias_sigma) {
        bits.extend(v.iter().map(|x| x.to_bits()));
    }
    bits
}

#[test]
fn training_is_bit_identical_across_threads_beyond_lane_count() {
    // 160-row batches split into 10 shards (> LANES) and 10 MC samples
    // (> LANES): both folds in the gradient reduction take the strided
    // lane path rather than the ≤LANES degenerate path.
    let (x, y) = toy_data(320, 6, 7);
    let train = |threads: usize| {
        let mut bnn = Bnn::new(
            BnnConfig::new(&[6, 24, 3]).with_lr(5e-3).with_kl_weight(1e-3),
            19,
        );
        let reports: Vec<_> = (0..2)
            .map(|_| bnn.train_epoch_mc_threads(&x, &y, 160, 10, threads))
            .collect();
        (reports, param_bits(&bnn))
    };
    let reference = train(1);
    for threads in [2usize, 4] {
        let got = train(threads);
        assert_eq!(got.0, reference.0, "{threads} threads: losses diverged");
        assert_eq!(got.1, reference.1, "{threads} threads: parameters diverged");
    }
}

/// A lightly trained network for the inference-path checks.
fn trained() -> Bnn {
    let (x, y) = toy_data(96, 5, 23);
    let mut bnn = Bnn::new(BnnConfig::new(&[5, 16, 3]).with_lr(0.02), 29);
    for _ in 0..3 {
        bnn.train_epoch_mc_threads(&x, &y, 32, 2, 1);
    }
    bnn
}

#[test]
fn software_mc_inference_is_bit_identical_across_threads() {
    let bnn = trained();
    let x = filled(9, 5, 31);
    // 11 samples > LANES: reduce_mean takes the lane path.
    let eps = ZigguratGrng::new(37);
    let reference = bnn.predict_proba_mc_parallel(&x, 11, &eps, 1);
    for threads in [2usize, 4] {
        let got = bnn.predict_proba_mc_parallel(&x, 11, &eps, threads);
        assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "software MC inference diverged at {threads} threads"
        );
    }
}

#[test]
fn quantized_hw_mc_inference_is_bit_identical_across_threads() {
    let bnn = trained();
    let x = filled(9, 5, 41);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &x);
    let eps = ZigguratGrng::new(43);
    let reference = q.predict_proba_mc_parallel(&x, 11, &eps, 1);
    for threads in [2usize, 4] {
        let got = q.predict_proba_mc_parallel(&x, 11, &eps, threads);
        assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "quantized MC inference diverged at {threads} threads"
        );
    }
}

fn deployed() -> Vibnn {
    let bnn = trained();
    let calib = filled(16, 5, 47);
    VibnnBuilder::new(bnn.params())
        .mc_samples(11)
        .calibration(calib)
        .build()
        .expect("valid deployment")
}

#[test]
fn serving_inherits_the_lane_contract() {
    const EPS_SEED: u64 = 0xAB5;
    let x = filled(10, 5, 53);
    let reference = deployed().predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), 1);
    for workers in [1usize, 2, 4] {
        let engine = ServeEngine::with_eps(
            deployed(),
            ServeConfig {
                max_batch: 4,
                workers,
                ..ServeConfig::default()
            },
            ZigguratGrng::new(EPS_SEED),
        )
        .expect("valid serve config");
        let results = engine.submit_batch(&x).expect("serve");
        for (r, res) in results.iter().enumerate() {
            assert_eq!(
                res.proba.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "served row {r} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn cluster_inherits_the_lane_contract() {
    const CLUSTER_SEED: u64 = 0xC1A7;
    let x = filled(8, 5, 59);
    // The reference: one-shot batched inference with the cluster's
    // derived replica ε source.
    let reference = deployed().predict_proba_parallel(
        &x,
        &replica_source(&ZigguratGrng::new(CLUSTER_SEED)),
        1,
    );
    for replicas in [1usize, 2] {
        let cluster = ClusterEngine::with_eps(
            deployed(),
            ClusterConfig {
                replicas,
                max_batch: 4,
                workers: 2,
                ..ClusterConfig::default()
            },
            ZigguratGrng::new(CLUSTER_SEED),
        )
        .expect("valid cluster config");
        let ids: Vec<u64> = (0..x.rows())
            .map(|r| cluster.submit(x.row(r).to_vec()).expect("submit"))
            .collect();
        for (r, id) in ids.into_iter().enumerate() {
            let res = cluster.wait(id).expect("result");
            assert_eq!(
                res.proba.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "cluster row {r} diverged at {replicas} replicas"
            );
        }
        cluster.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lane assignment is a function of the data index alone: for any
    /// draw count (straddling LANES) the production mean equals an
    /// explicit per-element lane fold, bitwise.
    #[test]
    fn reduce_mean_lane_assignment_is_schedule_independent(
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let draws: Vec<Matrix> = (0..n).map(|k| filled(3, 2, seed * 100 + k as u64)).collect();
        let got = reduce_mean(&draws);
        for i in 0..6 {
            let mut lanes = [0.0f32; LANES];
            for (k, d) in draws.iter().enumerate() {
                lanes[k % LANES] += d.data()[i];
            }
            let mut want = 0.0f32;
            for l in lanes {
                want += l;
            }
            // `reduce_mean` multiplies by the reciprocal (Matrix::scale);
            // a literal division rounds differently.
            want *= 1.0 / n as f32;
            prop_assert_eq!(
                got.data()[i].to_bits(),
                want.to_bits(),
                "element {} broke the lane rule at n={}",
                i,
                n
            );
        }
    }

    /// The threaded MC ensemble gives every schedule (any thread count)
    /// the same bits as the serial one.
    #[test]
    fn mc_ensemble_is_schedule_independent(
        samples in 1usize..20,
        threads in 2usize..9,
    ) {
        let bnn = trained();
        let x = filled(4, 5, 61);
        let eps = ZigguratGrng::new(67);
        let reference = bnn.predict_proba_mc_parallel(&x, samples, &eps, 1);
        let got = bnn.predict_proba_mc_parallel(&x, samples, &eps, threads);
        prop_assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
