//! The adaptive sampling subsystem's determinism contract, pinned end
//! to end:
//!
//! - `ExactN` is the pre-policy serving path bit for bit — through a
//!   single engine, every cluster shape, and the ingest wire — and
//!   every answer reports the full `mc_samples` budget as
//!   `samples_used`.
//! - `EarlyExit` stopping decisions are a pure function of the request
//!   row and the ε substreams: the served bits *and* `samples_used`
//!   are identical across worker counts {1, 2, 4}, replica counts
//!   {1, 2, 4}, micro-batch sizes, permuted arrival orders, and
//!   spill-induced rerouting.
//! - `RiskTiered` abstentions are typed
//!   (`VibnnError::Abstained { samples_used, entropy_milli }`) and
//!   exactly attributable: per-request through `wait`, in aggregate
//!   through `ClusterMetrics::sampling`. An escalated-but-served
//!   request runs to the full budget and therefore reproduces the
//!   `ExactN` bits exactly.
//! - `samples_used` survives the reply codec for any value (property
//!   test over single, batch, and abstention reply frames).
//!
//! Run explicitly by `ci.sh`.

use proptest::prelude::*;
use vibnn::bnn::{replica_source, Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::ingest::{decode_reply, encode_reply, Reply, WireError};
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::sampler::PolicySpec;
use vibnn::serve::ServeResult;
use vibnn::{
    IngestClient, IngestConfig, IngestServer, Priority, Vibnn, VibnnBuilder, VibnnError,
};

const CLUSTER_SEED: u64 = 0xC1_0FFEE;
const FEATURES: usize = 4;
const REQUESTS: usize = 12;
const MC_SAMPLES: usize = 5;

/// Same lightly trained deployment as `tests/cluster_determinism.rs`,
/// so this suite pins the identical pre-PR reference bits.
fn deployed(train_seed: u64) -> Vibnn {
    let mut rng = GaussianInit::new(3);
    let mut x = Matrix::zeros(64, FEATURES);
    let mut y = Vec::new();
    for r in 0..64 {
        let mut s = 0.0;
        for c in 0..FEATURES {
            let v = rng.next_gaussian() as f32;
            x[(r, c)] = v;
            s += v;
        }
        y.push(usize::from(s > 0.0));
    }
    let mut bnn = Bnn::new(BnnConfig::new(&[FEATURES, 8, 2]).with_lr(0.02), train_seed);
    for _ in 0..3 {
        bnn.train_epoch(&x, &y, 16);
    }
    VibnnBuilder::new(bnn.params())
        .mc_samples(MC_SAMPLES)
        .calibration(x.rows_slice(0, 16))
        .build()
        .expect("valid deployment")
}

fn request_rows() -> Matrix {
    let mut rng = GaussianInit::new(29);
    let mut x = Matrix::zeros(REQUESTS, FEATURES);
    for v in x.data_mut() {
        *v = rng.next_gaussian() as f32;
    }
    x
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// The pre-PR reference: the one-shot batched call under the cluster's
/// derived replica ε source — exactly what `tests/cluster_determinism.rs`
/// pins for the policy-free path.
fn reference_rows(vibnn: &Vibnn, x: &Matrix) -> Matrix {
    let eps = replica_source(&ZigguratGrng::new(CLUSTER_SEED));
    vibnn.predict_proba_parallel(x, &eps, 1)
}

fn cluster_with(
    vibnn: Vibnn,
    replicas: usize,
    workers: usize,
    max_batch: usize,
    max_queue: usize,
    policy: PolicySpec,
) -> ClusterEngine<ZigguratGrng> {
    ClusterEngine::with_eps(
        vibnn,
        ClusterConfig {
            replicas,
            max_batch,
            max_queue,
            workers,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: Some(policy),
        },
        ZigguratGrng::new(CLUSTER_SEED),
    )
    .expect("valid cluster config")
}

#[test]
fn exact_n_is_the_pre_policy_path_bit_for_bit_through_engine_cluster_and_wire() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    // Cluster: every shape under an explicit `ExactN` must reproduce the
    // policy-free reference, and every answer reports the full budget.
    for replicas in [1usize, 2, 4] {
        let c = cluster_with(vibnn.clone(), replicas, 1, 4, 64, PolicySpec::ExactN);
        let ids: Vec<u64> = (0..REQUESTS)
            .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
            .collect();
        for (r, &id) in ids.iter().enumerate() {
            let res = c.wait(id).expect("result");
            assert_eq!(
                bits(&res.proba),
                bits(reference.row(r)),
                "ExactN diverged from the pre-policy bits at replicas={replicas}, row {r}"
            );
            assert_eq!(res.samples_used as usize, MC_SAMPLES, "row {r}");
        }
        let m = c.metrics();
        assert_eq!(m.sampling.samples_used_total, (REQUESTS * MC_SAMPLES) as u64);
        assert_eq!(m.sampling.abstained, 0);
        // Every served request sits in the full-budget histogram bucket.
        assert_eq!(m.sampling.histogram[MC_SAMPLES - 1], REQUESTS as u64);
        assert!(c.shutdown().is_empty());
    }
    // Wire: the same reference bits and the full budget per reply.
    let c = cluster_with(vibnn.clone(), 2, 1, 4, 64, PolicySpec::ExactN);
    let server = match IngestServer::bind(c, "127.0.0.1:0", IngestConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("skipping wire leg: cannot bind loopback ({e})");
            return;
        }
    };
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    for r in 0..REQUESTS {
        let res = client
            .predict_with(x.row(r), Priority::Interactive, 0)
            .expect("wire predict");
        assert_eq!(
            bits(&res.proba),
            bits(reference.row(r)),
            "ExactN row {r} diverged over the wire"
        );
        assert_eq!(res.samples_used as usize, MC_SAMPLES, "wire row {r}");
    }
    let m = client.metrics().expect("wire metrics");
    let samples_used_total = (REQUESTS * MC_SAMPLES) as u64;
    assert_eq!(m.count("samples_used_total"), Some(samples_used_total));
    assert_eq!(m.count("abstained"), Some(0));
    assert!(server.shutdown().shutdown().is_empty());
}

#[test]
fn early_exit_bits_and_samples_used_are_invariant_everywhere() {
    let x = request_rows();
    let vibnn = deployed(5);
    let policy = PolicySpec::EarlyExit {
        k: 2,
        min_samples: 2,
    };
    // Canonical per-row outcome: the smallest possible cluster.
    let canon: Vec<(Vec<u32>, u32)> = {
        let c = cluster_with(vibnn.clone(), 1, 1, 4, 64, policy);
        let out = (0..REQUESTS)
            .map(|r| {
                let id = c.submit(x.row(r).to_vec()).expect("submit");
                let res = c.wait(id).expect("result");
                (bits(&res.proba), res.samples_used)
            })
            .collect();
        assert!(c.shutdown().is_empty());
        out
    };
    // The policy genuinely exits early somewhere, or this test proves
    // nothing.
    assert!(
        canon.iter().any(|(_, used)| (*used as usize) < MC_SAMPLES),
        "no request exited early; stability threshold too strict for this workload"
    );
    // Worker counts × replica counts × micro-batch sizes.
    for replicas in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            for max_batch in [1usize, 3, 32] {
                let c = cluster_with(vibnn.clone(), replicas, workers, max_batch, 64, policy);
                let ids: Vec<u64> = (0..REQUESTS)
                    .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
                    .collect();
                for (r, &id) in ids.iter().enumerate() {
                    let res = c.wait(id).expect("result");
                    assert_eq!(
                        (bits(&res.proba), res.samples_used),
                        canon[r].clone(),
                        "row {r} diverged at replicas={replicas} workers={workers} \
                         max_batch={max_batch}"
                    );
                }
                assert!(c.shutdown().is_empty());
            }
        }
    }
    // Permuted arrival orders.
    let orders: [Vec<usize>; 3] = [
        (0..REQUESTS).collect(),
        (0..REQUESTS).rev().collect(),
        vec![5, 0, 9, 2, 7, 11, 1, 8, 3, 10, 6, 4],
    ];
    for (o, order) in orders.iter().enumerate() {
        let c = cluster_with(vibnn.clone(), 2, 2, 4, 64, policy);
        let mut ids = [0u64; REQUESTS];
        for &row in order {
            ids[row] = loop {
                match c.submit(x.row(row).to_vec()) {
                    Ok(id) => break id,
                    Err(VibnnError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("submit failed: {e}"),
                }
            };
        }
        for (row, &id) in ids.iter().enumerate() {
            let res = c.wait(id).expect("result");
            assert_eq!(
                (bits(&res.proba), res.samples_used),
                canon[row].clone(),
                "order {o}, row {row} diverged"
            );
        }
        assert!(c.shutdown().is_empty());
    }
    // Spill pressure: a tiny shared queue forces rerouting between the
    // two (same-policy) replicas; every accepted request still resolves
    // to its canonical bits and sample count.
    let c = cluster_with(vibnn.clone(), 2, 1, 2, 3, policy);
    let mut accepted: Vec<(usize, u64)> = Vec::new();
    for _ in 0..5 {
        for row in 0..REQUESTS {
            match c.submit(x.row(row).to_vec()) {
                Ok(id) => accepted.push((row, id)),
                Err(VibnnError::QueueFull { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
    for &(row, id) in &accepted {
        let res = c.wait(id).expect("result");
        assert_eq!(
            (bits(&res.proba), res.samples_used),
            canon[row].clone(),
            "spilled row {row} diverged"
        );
    }
    // The aggregate ledger agrees with the per-request ground truth.
    let m = c.metrics();
    let expect_total: u64 = accepted
        .iter()
        .map(|&(row, _)| u64::from(canon[row].1))
        .sum();
    assert_eq!(m.sampling.samples_used_total, expect_total);
    assert_eq!(m.sampling.abstained, 0);
    assert!(c.shutdown().is_empty());
}

#[test]
fn risk_tiered_abstentions_are_typed_and_exactly_attributable() {
    let x = request_rows();
    let vibnn = deployed(5);
    // `escalate_milli: 0` escalates every request (entropy is never
    // negative), and `abstain: true` refuses them all at the budget —
    // the extreme that makes attribution exact.
    let refuse_all = PolicySpec::RiskTiered {
        k: 2,
        min_samples: 2,
        escalate_milli: 0,
        abstain: true,
    };
    let c = cluster_with(vibnn.clone(), 2, 1, 4, 64, refuse_all);
    let ids: Vec<u64> = (0..REQUESTS)
        .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
        .collect();
    for (r, &id) in ids.iter().enumerate() {
        match c.wait(id) {
            Err(VibnnError::Abstained {
                samples_used,
                entropy_milli,
            }) => {
                // Escalation runs to the full budget before abstaining,
                // and the reported entropy is a normalized fraction.
                assert_eq!(samples_used as usize, MC_SAMPLES, "row {r}");
                assert!(entropy_milli <= 1000, "row {r}: entropy {entropy_milli}");
            }
            Ok(_) => panic!("row {r} was served under an always-abstain policy"),
            Err(e) => panic!("row {r}: wrong error type {e}"),
        }
    }
    let m = c.metrics();
    assert_eq!(m.sampling.abstained, REQUESTS as u64);
    assert_eq!(m.served, 0, "abstentions must never count as served");
    assert_eq!(m.sampling.samples_used_total, 0);
    assert!(m.sampling.histogram.iter().all(|&b| b == 0));
    // The refused work is still on the cost ledger: every abstention
    // drew its full budget.
    let drawn: u64 = m.replicas.iter().map(|r| r.cost.samples).sum();
    assert_eq!(drawn, (REQUESTS * MC_SAMPLES) as u64);
    assert!(c.shutdown().is_empty());
    // The service tier of the same policy: `abstain: false` escalates
    // every request to the full budget but serves it — which must be
    // the `ExactN` (= pre-policy batched) bits exactly.
    let escalate_all = PolicySpec::RiskTiered {
        k: 2,
        min_samples: 2,
        escalate_milli: 0,
        abstain: false,
    };
    let reference = reference_rows(&vibnn, &x);
    let c = cluster_with(vibnn.clone(), 2, 1, 4, 64, escalate_all);
    let ids: Vec<u64> = (0..REQUESTS)
        .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
        .collect();
    for (r, &id) in ids.iter().enumerate() {
        let res = c.wait(id).expect("escalated request must be served");
        assert_eq!(
            bits(&res.proba),
            bits(reference.row(r)),
            "escalated row {r} must reproduce the full-budget bits"
        );
        assert_eq!(res.samples_used as usize, MC_SAMPLES, "row {r}");
    }
    let m = c.metrics();
    assert_eq!(m.sampling.abstained, 0);
    assert_eq!(m.served, REQUESTS as u64);
    assert!(c.shutdown().is_empty());
}

proptest! {
    /// `samples_used` survives the reply codec bit-exactly for any
    /// value, on single-prediction, batch, and abstention frames.
    #[test]
    fn samples_used_survives_the_reply_codec(
        tag in 0u64..,
        id in 0u64..,
        samples_used in 0u32..,
        entropy_milli in 0u32..,
        proba in prop::collection::vec(0.0f32..1.0, 1..6),
    ) {
        let result = ServeResult {
            id,
            argmax: 0,
            entropy: 0.5,
            mc_std: 0.01,
            samples_used,
            proba,
        };
        let single = Reply::Predict { tag, result: result.clone() };
        prop_assert_eq!(decode_reply(&encode_reply(&single)).unwrap(), single);
        let batch = Reply::PredictBatch {
            tag,
            rows: vec![Ok(result), Err(WireError::Abstained {
                samples_used: u64::from(samples_used),
                entropy_milli: u64::from(entropy_milli),
            })],
        };
        prop_assert_eq!(decode_reply(&encode_reply(&batch)).unwrap(), batch);
        let error = Reply::Error {
            tag,
            error: WireError::Abstained {
                samples_used: u64::from(samples_used),
                entropy_milli: u64::from(entropy_milli),
            },
        };
        prop_assert_eq!(decode_reply(&encode_reply(&error)).unwrap(), error);
    }
}
