//! The backend subsystem's determinism contract, pinned end to end:
//!
//! 1. The default (quantized) backend serves **bit-identically** to the
//!    historical quantized-host path through both `ServeEngine` and
//!    `ClusterEngine`, at worker counts 1/2/4.
//! 2. The cycle backend's probabilities are **bit-identical** to the
//!    quantized backend's, and so to the ticked functional model
//!    (`CycleAccelerator::infer_forked`) on the same ε substream.
//! 3. A mixed pool answers every request with the backend of its home
//!    replica — each answer is attributable to exactly one
//!    `(version, backend)` pair through the per-replica `served` counts
//!    and cost ledgers, and nothing is dropped.
//! 4. Hardware cost is monotone: cycle totals strictly increase with
//!    every micro-batch a cycle replica serves, and host backends never
//!    charge cycles.
//!
//! Run explicitly by `ci.sh`.

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::hw::{CycleAccelerator, Schedule};
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::{BackendKind, Vibnn, VibnnBuilder};

const EPS_SEED: u64 = 0xBAC0_0111;
const FEATURES: usize = 4;
const REQUESTS: usize = 12;

/// A lightly trained deployment (training makes the probabilities
/// non-degenerate, so bit-comparisons are meaningful).
fn deployed() -> Vibnn {
    let mut rng = GaussianInit::new(11);
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
    let mut bnn = Bnn::new(BnnConfig::new(&[FEATURES, 8, 2]).with_lr(0.02), 7);
    for _ in 0..3 {
        bnn.train_epoch(&x, &y, 16);
    }
    VibnnBuilder::new(bnn.params())
        .mc_samples(4)
        .calibration(x.rows_slice(0, 16))
        .build()
        .expect("valid deployment")
}

fn request_rows() -> Matrix {
    let mut rng = GaussianInit::new(23);
    let mut x = Matrix::zeros(REQUESTS, FEATURES);
    for v in x.data_mut() {
        *v = rng.next_gaussian() as f32;
    }
    x
}

fn engine(vibnn: Vibnn, backend: Option<BackendKind>, workers: usize) -> ServeEngine<ZigguratGrng> {
    ServeEngine::with_eps(
        vibnn,
        ServeConfig {
            max_batch: 4,
            workers,
            backend,
            ..ServeConfig::default()
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid serve config")
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// The ticked functional model's per-row probabilities for every request
/// row, on the given ε substream — the cycle backend's reference.
fn cycle_reference(vibnn: &Vibnn, x: &Matrix, eps: &ZigguratGrng) -> Vec<Vec<f32>> {
    let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
    (0..x.rows())
        .map(|r| sim.infer_forked(x.row(r), eps).0)
        .collect()
}

#[test]
fn quantized_backend_is_bit_identical_to_the_historical_path() {
    let x = request_rows();
    let reference = deployed().predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), 1);
    for workers in [1usize, 2, 4] {
        // `backend: None` resolves to the deployment default (quantized);
        // `Some(Quantized)` must be the same thing.
        for backend in [None, Some(BackendKind::Quantized)] {
            let engine = engine(deployed(), backend, workers);
            assert_eq!(engine.backend_kind(), BackendKind::Quantized);
            let results = engine.submit_batch(&x).expect("serve");
            for (r, res) in results.iter().enumerate() {
                assert_eq!(
                    bits(&res.proba),
                    bits(reference.row(r)),
                    "row {r} diverged at workers={workers} backend={backend:?}"
                );
            }
        }
    }
}

#[test]
fn quantized_cluster_is_bit_identical_to_the_historical_path() {
    let x = request_rows();
    for workers in [1usize, 2, 4] {
        let cluster = ClusterEngine::with_eps(
            deployed(),
            ClusterConfig {
                replicas: 2,
                max_batch: 4,
                max_queue: 64,
                workers,
                spill: true,
                batch_skip_bound: 4,
                backend: None,
                policy: None,
            },
            ZigguratGrng::new(EPS_SEED),
        )
        .expect("valid cluster config");
        let reference = deployed().predict_proba_parallel(&x, &cluster.replica_eps(), 1);
        let ids: Vec<u64> = (0..REQUESTS)
            .map(|r| cluster.submit(x.row(r).to_vec()).expect("submit"))
            .collect();
        for (r, &id) in ids.iter().enumerate() {
            let res = cluster.wait(id).expect("serve");
            assert_eq!(
                bits(&res.proba),
                bits(reference.row(r)),
                "row {r} diverged at workers={workers}"
            );
        }
        let m = cluster.metrics();
        assert_eq!(m.served, REQUESTS as u64);
        // Host serving charges no hardware cycles or energy, but the MC
        // sample ledger still counts.
        assert_eq!(m.cost.cycles, 0);
        assert_eq!(m.cost.energy_nj, 0.0);
        assert_eq!(m.cost.samples as usize, REQUESTS * deployed().mc_samples());
        cluster.shutdown();
    }
}

#[test]
fn cycle_backend_matches_the_ticked_functional_model() {
    let x = request_rows();
    let vibnn = deployed();
    let reference = cycle_reference(&vibnn, &x, &ZigguratGrng::new(EPS_SEED));
    for workers in [1usize, 2, 4] {
        let engine = engine(deployed(), Some(BackendKind::Cycle), workers);
        assert_eq!(engine.backend_kind(), BackendKind::Cycle);
        let (results, cost) = engine.submit_batch_costed(&x).expect("serve");
        for (r, res) in results.iter().enumerate() {
            assert_eq!(
                bits(&res.proba),
                bits(&reference[r]),
                "row {r} diverged from the ticked model at workers={workers}"
            );
        }
        // Hardware-in-the-loop serving charges real cycles and energy.
        assert!(cost.cycles > 0, "cycle serving must charge cycles");
        assert!(cost.energy_nj > 0.0, "cycle serving must charge energy");
        assert_eq!(cost.samples as usize, REQUESTS * vibnn.mc_samples());
    }
}

#[test]
fn mixed_pool_answers_are_attributable_to_exactly_one_backend() {
    let x = request_rows();
    let vibnn = deployed();
    let kinds = [
        BackendKind::Quantized,
        BackendKind::Cycle,
        BackendKind::Quantized,
    ];
    let slots = kinds.map(|kind| (kind, vibnn.default_policy()));
    let cluster = ClusterEngine::with_slots(
        deployed(),
        ClusterConfig {
            replicas: kinds.len(),
            max_batch: 4,
            max_queue: 64,
            workers: 1,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
        ZigguratGrng::new(EPS_SEED),
        &slots,
    )
    .expect("valid mixed pool");
    let quant_ref = vibnn.predict_proba_parallel(&x, &cluster.replica_eps(), 1);
    let cycle_ref = cycle_reference(&vibnn, &x, &cluster.replica_eps());
    let ids: Vec<u64> = (0..REQUESTS)
        .map(|r| cluster.submit(x.row(r).to_vec()).expect("submit"))
        .collect();
    // The cycle backend serves the quantized datapath's bits, and both
    // equal the ticked model: every answer is the same whichever backend
    // served it, so attribution below rests on the replica ledgers.
    for (r, cycle) in cycle_ref.iter().enumerate() {
        assert_eq!(bits(cycle), bits(quant_ref.row(r)), "row {r}: cycle != quantized");
    }
    // Nothing dropped, and no answer differs from the shared reference.
    for (r, &id) in ids.iter().enumerate() {
        let res = cluster.wait(id).expect("mixed pool must not drop requests");
        assert_eq!(bits(&res.proba), bits(quant_ref.row(r)), "row {r} diverged");
    }
    let m = cluster.metrics();
    assert_eq!(m.served, REQUESTS as u64);
    let per_sample =
        Schedule::new(vibnn.config(), &vibnn.network().layer_sizes()).cycles_per_sample();
    // Spill can neither enter nor leave the lone cycle replica, so it
    // served exactly the requests homed on it.
    let cycle_homes = ids
        .iter()
        .filter(|&&id| id % kinds.len() as u64 == 1)
        .count() as u64;
    assert_eq!(m.replicas[1].served, cycle_homes);
    for (i, rep) in m.replicas.iter().enumerate() {
        assert_eq!(rep.backend, kinds[i]);
        match kinds[i] {
            BackendKind::Cycle => {
                assert!(rep.cost.cycles > 0, "cycle replica {i} must charge cycles");
                assert_eq!(rep.cost.cycles, rep.cost.samples * per_sample);
                assert!(rep.cost.energy_nj > 0.0);
            }
            _ => {
                assert_eq!(rep.cost.cycles, 0, "host replica {i} must not charge cycles");
                assert_eq!(rep.cost.energy_nj, 0.0);
            }
        }
        assert_eq!(
            rep.cost.samples,
            rep.served * vibnn.mc_samples() as u64,
            "replica {i} sample ledger"
        );
    }
    assert_eq!(
        m.cost.cycles,
        m.replicas.iter().map(|r| r.cost.cycles).sum::<u64>(),
        "cluster cost is the sum of replica costs"
    );
    cluster.shutdown();
}

#[test]
fn cycle_costs_increase_strictly_with_served_requests() {
    let x = request_rows();
    let engine = engine(deployed(), Some(BackendKind::Cycle), 1);
    let mut last = engine.cost();
    assert_eq!(last.cycles, 0);
    for r in 0..REQUESTS {
        let row = Matrix::from_rows(&[x.row(r)]);
        engine.submit_batch(&row).expect("serve");
        let now = engine.cost();
        assert!(
            now.cycles > last.cycles,
            "cycles must strictly increase (request {r}: {} -> {})",
            last.cycles,
            now.cycles
        );
        assert!(now.energy_nj > last.energy_nj);
        assert_eq!(now.samples, last.samples + deployed().mc_samples() as u64);
        last = now;
    }
}
