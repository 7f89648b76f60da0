//! The ingest server's determinism contract, pinned over real sockets:
//!
//! For any replica count {1, 2}, any number of concurrent TCP clients,
//! any arrival order, and any lane assignment, every wire-served
//! prediction is **bit-identical** to the one-shot batched
//! `Vibnn::predict_proba_parallel` call under the cluster's derived
//! replica ε source — the same reference `tests/cluster_determinism.rs`
//! pins for the in-process path. Deadline-expired requests are the only
//! requests that are not answered with a served result, and they fail
//! with the typed `DeadlineExceeded` error, never silently.
//!
//! Run explicitly by `ci.sh`. Every test skips gracefully when the
//! sandbox forbids loopback sockets.

use vibnn::bnn::{replica_source, Bnn, BnnConfig};
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::hw::CycleAccelerator;
use vibnn::ingest::MetricValue;
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::{
    BackendKind, IngestClient, IngestConfig, IngestServer, Priority, Vibnn, VibnnBuilder,
    VibnnError,
};

const CLUSTER_SEED: u64 = 0xC1_0FFEE;
const FEATURES: usize = 4;
const REQUESTS: usize = 12;

/// Same lightly trained deployment as `tests/cluster_determinism.rs`, so
/// the two suites pin the identical reference bits.
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

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn reference_rows(vibnn: &Vibnn, x: &Matrix) -> Matrix {
    let eps = replica_source(&ZigguratGrng::new(CLUSTER_SEED));
    vibnn.predict_proba_parallel(x, &eps, 1)
}

/// Binds a loopback ingest server over a freshly built cluster, or
/// `None` when the sandbox forbids sockets (suite passes vacuously).
fn try_server(
    vibnn: Vibnn,
    replicas: usize,
    max_batch: usize,
    max_queue: usize,
) -> Option<IngestServer> {
    let cluster = ClusterEngine::with_eps(
        vibnn,
        ClusterConfig {
            replicas,
            max_batch,
            max_queue,
            workers: 1,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
        ZigguratGrng::new(CLUSTER_SEED),
    )
    .expect("valid cluster config");
    match IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default()) {
        Ok(server) => Some(server),
        Err(e) => {
            eprintln!("skipping ingest determinism test: cannot bind loopback ({e})");
            None
        }
    }
}

#[test]
fn concurrent_clients_any_order_any_lane_match_batched_path() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    // Three arrival orders × two replica counts × three concurrent
    // clients × both lanes: each wire prediction must reproduce the
    // one-shot batched reference bit for bit, independent of which
    // client carried it, when it arrived, and which lane it rode.
    let orders: [Vec<usize>; 3] = [
        (0..REQUESTS).collect(),
        (0..REQUESTS).rev().collect(),
        vec![5, 0, 9, 2, 7, 11, 1, 8, 3, 10, 6, 4],
    ];
    for replicas in [1usize, 2] {
        for (o, order) in orders.iter().enumerate() {
            let Some(server) = try_server(vibnn.clone(), replicas, 4, 64) else {
                return;
            };
            let addr = server.local_addr();
            std::thread::scope(|scope| {
                for client_idx in 0..3usize {
                    let order = &order[..];
                    let x = &x;
                    let reference = &reference;
                    scope.spawn(move || {
                        let mut client = IngestClient::connect(addr).expect("connect");
                        // Client k carries arrival positions k, k+3, …
                        // of this permutation, alternating lanes.
                        for pos in (client_idx..order.len()).step_by(3) {
                            let row = order[pos];
                            let lane = if row % 2 == 0 {
                                Priority::Interactive
                            } else {
                                Priority::Batch
                            };
                            let res = client
                                .predict_with(x.row(row), lane, 0)
                                .expect("wire predict");
                            assert_eq!(
                                bits(&res.proba),
                                bits(reference.row(row)),
                                "order {o}, replicas {replicas}, client {client_idx}, \
                                 row {row} diverged over the wire"
                            );
                        }
                    });
                }
            });
            let metrics = server.metrics().cluster;
            assert_eq!(metrics.served, REQUESTS as u64, "order {o}");
            assert!(metrics.served_interactive > 0 && metrics.served_batch > 0);
            assert!(server.shutdown().shutdown().is_empty());
        }
    }
}

#[test]
fn wire_batch_request_is_bit_identical_to_one_shot_batched_path() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    let rows: Vec<Vec<f32>> = (0..REQUESTS).map(|r| x.row(r).to_vec()).collect();
    for lane in [Priority::Interactive, Priority::Batch] {
        let Some(server) = try_server(vibnn.clone(), 2, 4, 64) else {
            return;
        };
        let mut client = IngestClient::connect(server.local_addr()).expect("connect");
        let outcomes = client
            .predict_batch_with(&rows, lane, 0)
            .expect("wire batch");
        assert_eq!(outcomes.len(), REQUESTS);
        for (r, outcome) in outcomes.iter().enumerate() {
            let res = outcome.as_ref().expect("row served");
            assert_eq!(
                bits(&res.proba),
                bits(reference.row(r)),
                "lane {lane:?}, batch row {r} diverged over the wire"
            );
        }
        assert!(server.shutdown().shutdown().is_empty());
    }
}

#[test]
fn deadline_expired_requests_are_the_only_unanswered_ones() {
    let x = request_rows();
    let vibnn = deployed(5);
    let reference = reference_rows(&vibnn, &x);
    // One slow replica and a deep queue: a big no-deadline batch keeps
    // the dispatcher busy while the probe client sends 1 µs deadlines.
    let Some(server) = try_server(vibnn.clone(), 1, 2, 512) else {
        return;
    };
    let addr = server.local_addr();
    let congestion: Vec<Vec<f32>> = (0..240).map(|r| x.row(r % REQUESTS).to_vec()).collect();
    let loader = std::thread::spawn(move || {
        let mut client = IngestClient::connect(addr).expect("connect");
        client
            .predict_batch_with(&congestion, Priority::Batch, 0)
            .expect("congestion batch")
    });
    // Wait until the cluster queue is visibly non-empty, so the probe
    // requests genuinely queue behind work.
    let mut probe = IngestClient::connect(addr).expect("connect");
    for _ in 0..2000 {
        let queued = probe.metrics().expect("metrics").count("queued");
        if queued.expect("queued") > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    let mut expired = 0usize;
    let mut answered = 0usize;
    for r in 0..6usize {
        match probe.predict_with(x.row(r), Priority::Interactive, 1) {
            // A served reply must still carry the reference bits …
            Ok(res) => {
                assert_eq!(bits(&res.proba), bits(reference.row(r)), "probe row {r}");
                answered += 1;
            }
            // … and the only admissible refusal is the typed deadline.
            Err(VibnnError::DeadlineExceeded) => expired += 1,
            Err(e) => panic!("probe row {r}: unexpected error {e}"),
        }
    }
    assert_eq!(answered + expired, 6, "every probe request got a reply");
    assert!(
        expired >= 1,
        "1 µs deadlines behind a 240-row backlog never expired"
    );
    // The congestion batch itself — no deadline — is answered in full,
    // every row bit-identical: expiry steals nothing from live traffic.
    let outcomes = loader.join().expect("loader thread");
    assert_eq!(outcomes.len(), 240);
    for (i, outcome) in outcomes.iter().enumerate() {
        let res = outcome.as_ref().expect("congestion row served");
        assert_eq!(
            bits(&res.proba),
            bits(reference.row(i % REQUESTS)),
            "congestion row {i} diverged"
        );
    }
    let metrics = server.metrics().cluster;
    assert_eq!(metrics.deadline_expired, expired as u64);
    assert_eq!(metrics.served, 240 + answered as u64);
    assert!(server.shutdown().shutdown().is_empty());
}

#[test]
fn cycle_backend_serves_the_wire_with_nonzero_cost_metrics() {
    let x = request_rows();
    let vibnn = deployed(5);
    // The ticked functional model on the cluster's derived replica
    // source is the reference for every wire answer.
    let eps = replica_source(&ZigguratGrng::new(CLUSTER_SEED));
    let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
    let reference: Vec<Vec<f32>> = (0..REQUESTS)
        .map(|r| sim.infer_forked(x.row(r), &eps).0)
        .collect();
    let cluster = ClusterEngine::with_eps(
        vibnn.clone(),
        ClusterConfig {
            replicas: 2,
            max_batch: 4,
            max_queue: 64,
            workers: 1,
            spill: true,
            batch_skip_bound: 4,
            backend: Some(BackendKind::Cycle),
            policy: None,
        },
        ZigguratGrng::new(CLUSTER_SEED),
    )
    .expect("valid cluster config");
    let server = match IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("skipping ingest determinism test: cannot bind loopback ({e})");
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
            bits(&reference[r]),
            "row {r} diverged from the ticked model over the wire"
        );
    }
    // The hardware ledger travels the wire: nonzero cycles/energy in the
    // Metrics reply, per-replica entries labelled `cycle`, totals
    // consistent. At quiescence the decoded frame is the server's own,
    // value for value.
    let m = client.metrics().expect("wire metrics");
    assert_eq!(m, server.metrics().frame(), "the wire changed a value");
    assert_eq!(m.count("served"), Some(REQUESTS as u64));
    let total_cycles = m.count("cost_cycles").expect("total cycles");
    assert!(total_cycles > 0, "cycle serving must charge cycles");
    assert!(
        matches!(m.get("cost_energy_nj"), Some(MetricValue::Gauge(e)) if *e > 0.0),
        "cycle serving must charge energy"
    );
    assert_eq!(
        m.count("cost_samples"),
        Some((REQUESTS * vibnn.mc_samples()) as u64)
    );
    let replica_cycles: Vec<_> =
        m.0.iter()
            .filter(|metric| metric.name == "cost_cycles" && !metric.labels.is_empty())
            .collect();
    assert_eq!(replica_cycles.len(), 2);
    for (i, metric) in replica_cycles.iter().enumerate() {
        let labels = [("replica", i.to_string()), ("backend", "cycle".to_owned())];
        assert_eq!(metric.labels, labels.map(|(k, v)| (k.to_owned(), v)));
    }
    assert_eq!(
        total_cycles,
        replica_cycles
            .iter()
            .map(|metric| match metric.value {
                MetricValue::Count(cycles) => cycles,
                ref other => panic!("replica cycles as {other:?}"),
            })
            .sum::<u64>(),
        "wire total is the sum of per-replica costs"
    );
    assert!(server.shutdown().shutdown().is_empty());
}
