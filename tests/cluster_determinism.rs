//! The cluster's determinism contract, pinned end to end:
//!
//! For any replica count (1/2/4), any per-replica worker count (1/2), and
//! any arrival order, every request's mean probabilities are
//! **bit-identical** to a single `ServeEngine` over the cluster's derived
//! replica ε source — and therefore to the one-shot batched
//! `Vibnn::predict_proba_parallel` call. Hot swaps mid-traffic lose no
//! responses, duplicate none, and answer post-swap requests with the new
//! checkpoint exactly as a fresh single engine on that checkpoint would.
//!
//! Run explicitly by `ci.sh`.

use vibnn::bnn::{replica_source, Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine, SubmitOptions};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::{Vibnn, VibnnBuilder, VibnnError};

const CLUSTER_SEED: u64 = 0xC1_0FFEE;
const FEATURES: usize = 4;
const REQUESTS: usize = 12;

/// A lightly trained deployment (training makes the probabilities
/// non-degenerate, so bit-comparisons are meaningful).
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
    let mut bnn = Bnn::new(
        BnnConfig::new(&[FEATURES, 8, 2]).with_lr(0.02),
        train_seed,
    );
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
    let mut rng = GaussianInit::new(29);
    let mut x = Matrix::zeros(REQUESTS, FEATURES);
    for v in x.data_mut() {
        *v = rng.next_gaussian() as f32;
    }
    x
}

fn cluster(
    vibnn: Vibnn,
    replicas: usize,
    workers: usize,
    max_batch: usize,
) -> ClusterEngine<ZigguratGrng> {
    ClusterEngine::with_eps(
        vibnn,
        ClusterConfig {
            replicas,
            max_batch,
            max_queue: 64,
            workers,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
        ZigguratGrng::new(CLUSTER_SEED),
    )
    .expect("valid cluster config")
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// The reference every cluster configuration must reproduce: the raw
/// batched path under the cluster's derived replica ε source — a pure
/// function of the cluster seed (`replica_source` is exactly what
/// `ClusterEngine::replica_eps` returns).
fn reference_rows(vibnn: &Vibnn, x: &Matrix) -> Matrix {
    let eps = replica_source(&ZigguratGrng::new(CLUSTER_SEED));
    vibnn.predict_proba_parallel(x, &eps, 1)
}

#[test]
fn cluster_matches_single_engine_and_batched_path() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    // `replica_eps` is the same derivation the reference uses, and the
    // single-engine path over it agrees with the batched path (the PR 4
    // contract, under the cluster's ε derivation).
    let probe = cluster(vibnn.clone(), 1, 1, 4);
    let probe_eps = probe.replica_eps();
    probe.shutdown();
    let single = ServeEngine::with_eps(
        vibnn.clone(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        },
        probe_eps,
    )
    .expect("valid serve config")
    .submit_batch(&x)
    .expect("serve");
    for (r, res) in single.iter().enumerate() {
        assert_eq!(bits(&res.proba), bits(reference.row(r)), "engine row {r}");
    }
    // Every cluster shape reproduces the reference bit for bit.
    for replicas in [1usize, 2, 4] {
        for workers in [1usize, 2] {
            for max_batch in [1usize, 3, 32] {
                let c = cluster(vibnn.clone(), replicas, workers, max_batch);
                let ids: Vec<u64> = (0..REQUESTS)
                    .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
                    .collect();
                for (r, &id) in ids.iter().enumerate() {
                    let res = c.wait(id).expect("result");
                    assert_eq!(
                        bits(&res.proba),
                        bits(reference.row(r)),
                        "row {r} diverged at replicas={replicas} workers={workers} \
                         max_batch={max_batch}"
                    );
                }
                let metrics = c.metrics();
                assert_eq!(metrics.served, REQUESTS as u64);
                assert_eq!(
                    metrics.replicas.iter().map(|r| r.served).sum::<u64>(),
                    REQUESTS as u64
                );
                assert!(c.shutdown().is_empty());
            }
        }
    }
}

/// A wrong-width row never reaches the forward kernel's width check:
/// admission refuses it with a typed `ShapeMismatch`, and the next
/// well-formed request still gets its reference bits.
#[test]
fn wrong_width_row_is_refused_and_serving_continues() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    let c = cluster(vibnn, 1, 1, 4);
    for bad in [vec![0.5; FEATURES + 1], vec![0.5; FEATURES - 1], Vec::new()] {
        let got = bad.len();
        match c.submit_with(bad, SubmitOptions::default()) {
            Err(VibnnError::ShapeMismatch {
                expected, got: g, ..
            }) => {
                assert_eq!((expected, g), (FEATURES, got));
            }
            other => panic!("width {got}: expected ShapeMismatch, got {other:?}"),
        }
    }
    let id = c
        .submit_with(x.row(0).to_vec(), SubmitOptions::default())
        .expect("submit");
    let res = c.wait(id).expect("result");
    assert_eq!(bits(&res.proba), bits(reference.row(0)));
    assert!(c.shutdown().is_empty());
}

#[test]
fn arrival_order_never_changes_results() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    let orders: [Vec<usize>; 3] = [
        (0..REQUESTS).collect(),
        (0..REQUESTS).rev().collect(),
        vec![5, 0, 9, 2, 7, 11, 1, 8, 3, 10, 6, 4],
    ];
    for replicas in [1usize, 2, 4] {
        for workers in [1usize, 2] {
            for (o, order) in orders.iter().enumerate() {
                let c = cluster(vibnn.clone(), replicas, workers, 4);
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
                        bits(&res.proba),
                        bits(reference.row(row)),
                        "order {o}, replicas {replicas}, workers {workers}, row {row} diverged"
                    );
                }
                assert!(c.shutdown().is_empty());
            }
        }
    }
}

#[test]
fn spill_and_admission_preserve_bit_identity() {
    // A tiny cluster queue forces constant backpressure and spill
    // pressure; every accepted request must still resolve to the
    // reference bits.
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    let c = ClusterEngine::with_eps(
        vibnn,
        ClusterConfig {
            replicas: 2,
            max_batch: 2,
            max_queue: 3,
            workers: 1,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
        ZigguratGrng::new(CLUSTER_SEED),
    )
    .expect("valid cluster config");
    let mut accepted: Vec<(usize, u64)> = Vec::new();
    for round in 0..5 {
        for row in 0..REQUESTS {
            match c.submit(x.row(row).to_vec()) {
                Ok(id) => accepted.push((row, id)),
                Err(VibnnError::QueueFull { depth, capacity }) => {
                    assert_eq!(capacity, 3, "round {round}");
                    assert!(depth >= capacity);
                }
                Err(e) => panic!("round {round}: unexpected error {e}"),
            }
        }
    }
    for &(row, id) in &accepted {
        let res = c.wait(id).expect("result");
        assert_eq!(bits(&res.proba), bits(reference.row(row)), "row {row}");
    }
    let metrics = c.metrics();
    assert_eq!(metrics.submitted, accepted.len() as u64);
    assert!(c.shutdown().is_empty());
}

#[test]
fn hot_swap_mid_traffic_loses_and_duplicates_nothing() {
    let x = request_rows();
    let old_model = deployed(5);
    let new_model = deployed(21); // genuinely different parameters
    let old_reference = reference_rows(&old_model, &x);
    let new_reference = reference_rows(&new_model, &x);
    assert_ne!(
        old_reference.data(),
        new_reference.data(),
        "the two checkpoints must disagree for the swap to be observable"
    );
    for replicas in [1usize, 2] {
        let c = cluster(old_model.clone(), replicas, 1, 3);
        // Phase 1: requests submitted before the swap — answered by the
        // old checkpoint no matter when the dispatcher gets to them.
        let pre: Vec<u64> = (0..REQUESTS)
            .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
            .collect();
        // Roll the new checkpoint across every replica mid-traffic.
        let reports = c.rollout(new_model.clone()).expect("rollout");
        assert_eq!(reports.len(), replicas);
        assert!(reports.iter().all(|r| r.version == 1));
        // Phase 2: requests submitted after the rollout — answered by the
        // new checkpoint.
        let post: Vec<u64> = (0..REQUESTS)
            .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
            .collect();
        // Exactly one response per request, with the right version's bits.
        for (r, &id) in pre.iter().enumerate() {
            let res = c.wait(id).expect("pre-swap result");
            assert_eq!(
                bits(&res.proba),
                bits(old_reference.row(r)),
                "replicas {replicas}: pre-swap row {r} not served by the old checkpoint"
            );
        }
        for (r, &id) in post.iter().enumerate() {
            let res = c.wait(id).expect("post-swap result");
            assert_eq!(
                bits(&res.proba),
                bits(new_reference.row(r)),
                "replicas {replicas}: post-swap row {r} not served by the new checkpoint"
            );
        }
        // Double-claiming is impossible: the results were taken.
        for &id in pre.iter().chain(&post) {
            assert!(c.try_take(id).is_none());
        }
        let metrics = c.metrics();
        assert_eq!(metrics.served, 2 * REQUESTS as u64);
        assert_eq!(metrics.swaps_completed, replicas as u64);
        assert!(c.shutdown().is_empty(), "no orphaned responses");
    }
}

#[test]
fn hot_swap_from_checkpoint_file_matches_a_fresh_engine() {
    let x = request_rows();
    let old_model = deployed(5);
    let new_model = deployed(21);
    let new_reference = reference_rows(&new_model, &x);
    let path = std::env::temp_dir().join(format!(
        "vibnn_cluster_swap_{}.ckpt",
        std::process::id()
    ));
    new_model.save(&path).expect("save kind-3 checkpoint");
    let c = cluster(old_model, 2, 1, 4);
    c.hot_swap_from(0, &path).expect("swap replica 0");
    c.hot_swap_from(1, &path).expect("swap replica 1");
    let ids: Vec<u64> = (0..REQUESTS)
        .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
        .collect();
    for (r, &id) in ids.iter().enumerate() {
        let res = c.wait(id).expect("result");
        assert_eq!(
            bits(&res.proba),
            bits(new_reference.row(r)),
            "row {r}: checkpoint-loaded replica diverged from the fresh deployment"
        );
    }
    assert!(c.shutdown().is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_track_batches_and_drain_state() {
    let vibnn = deployed(5);
    let c = cluster(vibnn, 2, 1, 4);
    let x = request_rows();
    let ids: Vec<u64> = (0..REQUESTS)
        .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
        .collect();
    for id in ids {
        c.wait(id).expect("result");
    }
    let m = c.metrics();
    assert_eq!(m.capacity, 64);
    assert_eq!(m.queued, 0);
    assert!(!m.draining);
    assert_eq!(m.submitted, REQUESTS as u64);
    assert_eq!(m.served, REQUESTS as u64);
    // Histogram mass equals the number of dispatched micro-batches, and
    // weighted mass equals the requests served.
    let mut batches = 0u64;
    let mut weighted = 0u64;
    for rep in &m.replicas {
        assert_eq!(rep.batch_histogram.len(), 4);
        assert!(rep.alive);
        assert!(!rep.swap_pending);
        for (i, &count) in rep.batch_histogram.iter().enumerate() {
            batches += count;
            weighted += count * (i as u64 + 1);
        }
    }
    assert!(batches > 0);
    assert_eq!(weighted, REQUESTS as u64);
    assert!(c.shutdown().is_empty());
}

#[test]
fn rollout_under_sustained_traffic_with_concurrent_trainer() {
    // The online-loop deployment story, exercised at the cluster seam: a
    // trainer thread keeps producing checkpoints — saving each as a
    // kind-3 file and rolling it across every replica via
    // `hot_swap_from` — while a client pumps requests the whole time.
    // Every accepted request must resolve exactly once, and every
    // answer must be bit-attributable to exactly one of the known
    // checkpoint versions (the references are pairwise distinct, so
    // attribution is unambiguous). Traffic before the trainer starts is
    // version 0; traffic after it finishes is the final version.
    let x = request_rows();
    let models: Vec<Vibnn> = [5u64, 21, 33, 47].iter().map(|&s| deployed(s)).collect();
    let references: Vec<Matrix> = models.iter().map(|m| reference_rows(m, &x)).collect();
    for a in 0..references.len() {
        for b in (a + 1)..references.len() {
            assert_ne!(
                references[a].data(),
                references[b].data(),
                "checkpoints {a} and {b} must disagree for attribution to be unambiguous"
            );
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "vibnn_cluster_trainer_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let replicas = 2usize;
    let c = cluster(models[0].clone(), replicas, 2, 3);
    // Wave 0, before any trainer activity: pure version-0 traffic.
    let wave = |expect_rows: &Matrix| {
        for r in 0..REQUESTS {
            let id = loop {
                match c.submit(x.row(r).to_vec()) {
                    Ok(id) => break id,
                    Err(VibnnError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("submit failed: {e}"),
                }
            };
            let res = c.wait(id).expect("result");
            assert_eq!(bits(&res.proba), bits(expect_rows.row(r)));
            assert!(c.try_take(id).is_none(), "result claimed twice");
        }
    };
    wave(&references[0]);
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut accepted = 0u64;
    std::thread::scope(|s| {
        let trainer = s.spawn(|| {
            // Each "training round" lands a new checkpoint on disk and
            // rolls it out replica by replica, mid-traffic.
            for (v, model) in models.iter().enumerate().skip(1) {
                let path = dir.join(format!("v{v}.ckpt"));
                model.save(&path).expect("save kind-3 checkpoint");
                for rep in 0..replicas {
                    let report = c.hot_swap_from(rep, &path).expect("rollout from file");
                    assert_eq!(report.replica, rep);
                    assert_eq!(report.version, v as u64);
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        // Sustained client traffic for the trainer's whole lifetime:
        // every answer must match exactly one known version's bits for
        // its row — never a torn or mixed response.
        while !done.load(std::sync::atomic::Ordering::Acquire) {
            for r in 0..REQUESTS {
                let id = loop {
                    match c.submit(x.row(r).to_vec()) {
                        Ok(id) => break id,
                        Err(VibnnError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                };
                accepted += 1;
                let res = c.wait(id).expect("mid-rollout result");
                let row_bits = bits(&res.proba);
                let matches = references
                    .iter()
                    .filter(|reference| row_bits == bits(reference.row(r)))
                    .count();
                assert_eq!(
                    matches, 1,
                    "row {r} not attributable to exactly one checkpoint"
                );
                assert!(c.try_take(id).is_none(), "result claimed twice");
            }
        }
        trainer.join().expect("trainer panicked");
    });
    // Wave after the trainer finished: everything serves the final
    // checkpoint, and both replicas agree on its fingerprint.
    wave(references.last().expect("final reference"));
    let m = c.metrics();
    assert_eq!(m.served, accepted + 2 * REQUESTS as u64);
    assert_eq!(m.cancelled, 0, "sustained traffic must lose nothing");
    assert_eq!(m.swaps_completed, ((models.len() - 1) * replicas) as u64);
    let final_fp = m.replicas[0].checkpoint_fingerprint;
    for rep in &m.replicas {
        assert_eq!(rep.version, (models.len() - 1) as u64);
        assert_eq!(rep.checkpoint_fingerprint, final_fp);
        assert!(!rep.swap_pending);
    }
    assert!(c.shutdown().is_empty(), "no orphaned responses");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_under_queued_swap_never_hangs() {
    // Regression: with traffic queued and a rollout in flight, a
    // graceful stop used to depend on dispatcher timing to drain the
    // requests stranded behind the swap marker. `drain` must return
    // promptly — cancelling the stranded requests, still applying the
    // marker so the swapper resolves — and every accepted id must
    // settle as served, cancelled, or (when the race stops the cluster
    // first) refuse the swap; nothing may hang or be left unanswered.
    let x = request_rows();
    let old_model = deployed(5);
    let new_model = deployed(21);
    for round in 0..3u64 {
        let c = cluster(old_model.clone(), 1, 1, 2);
        let ids: Vec<u64> = (0..REQUESTS)
            .map(|r| c.submit(x.row(r).to_vec()).expect("submit"))
            .collect();
        std::thread::scope(|s| {
            let swapper = s.spawn(|| c.hot_swap(0, new_model.clone()));
            // Vary the interleaving a little across rounds; correctness
            // must not depend on who wins the race.
            if round > 0 {
                std::thread::sleep(std::time::Duration::from_millis(round));
            }
            c.drain();
            match swapper.join().expect("swapper panicked") {
                Ok(report) => assert_eq!(report.replica, 0),
                Err(VibnnError::EngineStopped) => {}
                Err(e) => panic!("unexpected hot_swap error: {e}"),
            }
        });
        // Every accepted request resolves with a definite outcome.
        let reference = reference_rows(&old_model, &x);
        for (r, &id) in ids.iter().enumerate() {
            match c.wait(id) {
                Ok(res) => assert_eq!(
                    bits(&res.proba),
                    bits(reference.row(r)),
                    "round {round}: pre-swap row {r} served by the wrong checkpoint"
                ),
                Err(VibnnError::EngineStopped) => {}
                Err(e) => panic!("round {round}, id {id}: unexpected outcome {e}"),
            }
        }
        let m = c.metrics();
        assert_eq!(
            m.served + m.cancelled,
            REQUESTS as u64,
            "round {round}: every accepted request must be served or cancelled"
        );
        assert!(c.shutdown().is_empty());
    }
}
