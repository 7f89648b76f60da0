//! The serving engine's determinism contract, pinned end to end:
//!
//! For any interleaving of N single-row requests — any arrival order, any
//! micro-batch coalescing, any worker count (1/2/4), synchronous or queued
//! through a one-replica `ClusterEngine` — the per-request mean
//! probabilities are **bit-identical** to the one-shot batched
//! `Vibnn::predict_proba_parallel` call over the same N rows with the
//! serving ε source.
//!
//! Run explicitly by `ci.sh`.

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::{Vibnn, VibnnBuilder, VibnnError};

const EPS_SEED: u64 = 0xC0FFEE;
const FEATURES: usize = 4;
const REQUESTS: usize = 10;

/// A lightly trained deployment (training makes the probabilities
/// non-degenerate, so bit-comparisons are meaningful).
fn deployed() -> Vibnn {
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
    let mut bnn = Bnn::new(BnnConfig::new(&[FEATURES, 8, 2]).with_lr(0.02), 5);
    for _ in 0..3 {
        bnn.train_epoch(&x, &y, 16);
    }
    VibnnBuilder::new(bnn.params())
        .mc_samples(5)
        .calibration(x.rows_slice(0, 16))
        .build()
        .expect("valid deployment")
}

fn request_rows() -> Matrix {
    let mut rng = GaussianInit::new(17);
    let mut x = Matrix::zeros(REQUESTS, FEATURES);
    for v in x.data_mut() {
        *v = rng.next_gaussian() as f32;
    }
    x
}

fn engine(vibnn: Vibnn, max_batch: usize, workers: usize) -> ServeEngine<ZigguratGrng> {
    ServeEngine::with_eps(
        vibnn,
        ServeConfig {
            max_batch,
            workers,
            ..ServeConfig::default()
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid serve config")
}

/// The queued front end with one dispatcher: a one-replica cluster.
fn queued(
    vibnn: Vibnn,
    max_batch: usize,
    max_queue: usize,
    workers: usize,
) -> ClusterEngine<ZigguratGrng> {
    ClusterEngine::with_eps(
        vibnn,
        ClusterConfig {
            replicas: 1,
            max_batch,
            max_queue,
            workers,
            ..ClusterConfig::default()
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid cluster config")
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sync_serving_is_bit_identical_to_batched_parallel_inference() {
    let x = request_rows();
    // The reference: one batched call, at several worker counts (which by
    // the PR 2 contract all agree).
    let reference = deployed().predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), 1);
    for threads in [2usize, 4] {
        let direct = deployed().predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), threads);
        assert_eq!(direct.data(), reference.data(), "direct path at {threads} threads");
    }
    // The engine: every (max_batch, workers) combination — including
    // micro-batches that split the 10 requests unevenly — must reproduce
    // the reference row for row.
    for max_batch in [1usize, 3, 4, 10, 32] {
        for workers in [1usize, 2, 4] {
            let results = engine(deployed(), max_batch, workers)
                .submit_batch(&x)
                .expect("serve");
            assert_eq!(results.len(), REQUESTS);
            for (r, res) in results.iter().enumerate() {
                assert_eq!(
                    bits(&res.proba),
                    bits(reference.row(r)),
                    "row {r} diverged at max_batch={max_batch} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn arrival_order_never_changes_results() {
    let x = request_rows();
    // Several arrival orders, served through the queued front end one
    // request at a time; results keyed by submission id map back to the
    // original row.
    let orders: [Vec<usize>; 3] = [
        (0..REQUESTS).collect(),
        (0..REQUESTS).rev().collect(),
        vec![5, 0, 9, 2, 7, 1, 8, 3, 6, 4],
    ];
    for (o, order) in orders.iter().enumerate() {
        for workers in [1usize, 2, 4] {
            let cluster = queued(deployed(), 4, 64, workers);
            let reference = deployed().predict_proba_parallel(&x, &cluster.replica_eps(), 1);
            let mut ids = [0u64; REQUESTS];
            for &row in order {
                let id = loop {
                    match cluster.submit(x.row(row).to_vec()) {
                        Ok(id) => break id,
                        Err(VibnnError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                };
                ids[row] = id;
            }
            for (row, &id) in ids.iter().enumerate() {
                let res = cluster.wait(id).expect("result");
                assert_eq!(
                    bits(&res.proba),
                    bits(reference.row(row)),
                    "order {o}, workers {workers}, row {row} diverged"
                );
            }
            let leftovers = cluster.shutdown();
            assert!(leftovers.is_empty(), "all results were claimed");
        }
    }
}

#[test]
fn uncertainty_is_deterministic_and_consistent() {
    let x = request_rows();
    let a = engine(deployed(), 3, 1).submit_batch(&x).expect("serve");
    let b = engine(deployed(), 10, 4).submit_batch(&x).expect("serve");
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.proba, rb.proba);
        assert_eq!(ra.entropy.to_bits(), rb.entropy.to_bits());
        assert_eq!(ra.mc_std.to_bits(), rb.mc_std.to_bits());
        assert_eq!(ra.argmax, rb.argmax);
        // argmax really is the max of the probabilities.
        assert!(ra.proba.iter().all(|&p| p <= ra.proba[ra.argmax]));
    }
}

#[test]
fn backpressure_and_shutdown_are_well_behaved() {
    // A capacity-1 queue under a hammering submitter: Full errors are
    // expected (and tolerated), every accepted request must still be
    // answered correctly, and shutdown drains the queue.
    let x = request_rows();
    let cluster = queued(deployed(), 2, 1, 1);
    let reference = deployed().predict_proba_parallel(&x, &cluster.replica_eps(), 1);
    let mut accepted: Vec<(usize, u64)> = Vec::new();
    let mut full_seen = 0usize;
    for round in 0..5 {
        for row in 0..REQUESTS {
            match cluster.submit(x.row(row).to_vec()) {
                Ok(id) => accepted.push((row, id)),
                Err(VibnnError::QueueFull {
                    depth: 1,
                    capacity: 1,
                }) => full_seen += 1,
                Err(e) => panic!("round {round}: unexpected error {e}"),
            }
        }
    }
    // We can't force a Full deterministically with a live dispatcher, but
    // every accepted request must resolve to the reference bits.
    for &(row, id) in &accepted {
        let res = cluster.wait(id).expect("result");
        assert_eq!(bits(&res.proba), bits(reference.row(row)), "row {row}");
    }
    // Every refusal was counted, and nothing else was.
    assert_eq!(cluster.metrics().rejected, full_seen as u64);
    assert_eq!(cluster.metrics().served, accepted.len() as u64);
    assert!(cluster.shutdown().is_empty());
}

#[test]
fn waiting_for_an_unknown_id_is_a_typed_error() {
    let cluster = queued(deployed(), 2, 64, 1);
    let id = cluster.submit(vec![0.0; FEATURES]).unwrap();
    let _ = cluster.wait(id).unwrap();
    // Waiting for an id that was never issued fails fast instead of
    // hanging.
    assert!(matches!(
        cluster.wait(1_000),
        Err(VibnnError::UnknownRequest(1_000))
    ));
}
