//! Machine-readable cluster-serving benchmark: writes `BENCH_cluster.json`.
//!
//! Measures end-to-end requests/sec of the sharded
//! [`vibnn::cluster::ClusterEngine`] — single-row submissions through the
//! cluster-level admission gate, routed across the replica pool and
//! micro-batched per replica — over a `replicas × workers × max_batch`
//! grid. The `replicas: 1` rows are the one-dispatcher baseline; the raw
//! batched `predict_proba_parallel` call under the identical derived ε
//! source is the upper bound. Before timing anything it asserts the
//! cluster determinism contract: every cluster result must be
//! bit-identical to the batched reference.
//!
//! Replica scaling is only a speedup when the host has cores to give the
//! extra dispatchers; the output records `host_parallelism` and, when the
//! host caps the pool, a `scaling_note` documenting it.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_cluster.json` in
//! the working directory. `VIBNN_SCALE=quick` shrinks the workload.

use std::fmt::Write as _;
use std::time::Instant;

use vibnn::bnn::replica_source;
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::Matrix;
use vibnn::{Vibnn, VibnnError};
use vibnn_bench::{bits, deploy, synth_rows, write_report, RunScale};

const CLUSTER_SEED: u64 = 0xC1BEAC;

struct Workload {
    features: usize,
    hidden: usize,
    classes: usize,
    requests: usize,
    mc_samples: usize,
    train_epochs: usize,
}

impl Workload {
    fn from_scale(scale: RunScale) -> Self {
        match scale {
            RunScale::Quick => Self {
                features: 8,
                hidden: 16,
                classes: 2,
                requests: 96,
                mc_samples: 4,
                train_epochs: 2,
            },
            RunScale::Default => Self {
                features: 26,
                hidden: 64,
                classes: 2,
                requests: 512,
                mc_samples: 8,
                train_epochs: 6,
            },
            RunScale::Full => Self {
                features: 26,
                hidden: 128,
                classes: 2,
                requests: 2048,
                mc_samples: 8,
                train_epochs: 10,
            },
        }
    }
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
            max_queue: 256,
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

/// Requests/sec for `x.rows()` single-row submissions through the cluster
/// (measured submit → last result, including backpressure retries).
fn cluster_rps(vibnn: Vibnn, x: &Matrix, replicas: usize, workers: usize, max_batch: usize) -> f64 {
    let c = cluster(vibnn, replicas, workers, max_batch);
    let start = Instant::now();
    let mut ids = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let id = loop {
            match c.submit(x.row(r).to_vec()) {
                Ok(id) => break id,
                Err(VibnnError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("submit failed: {e}"),
            }
        };
        ids.push(id);
    }
    for id in ids {
        c.wait(id).expect("result");
    }
    let elapsed = start.elapsed().as_secs_f64();
    c.shutdown();
    x.rows() as f64 / elapsed
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let (x, _) = synth_rows(w.requests, w.features, 17);
    let sizes = [w.features, w.hidden, w.classes];
    let vibnn = deploy(&sizes, w.mc_samples, w.train_epochs);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());

    // The derived replica source every path serves with — the same
    // derivation `ClusterEngine::replica_eps` returns for this seed.
    let eps = replica_source(&ZigguratGrng::new(CLUSTER_SEED));

    // Determinism gate: cluster rows must be bit-identical to the batched
    // reference before any number is worth reporting.
    let reference = vibnn.predict_proba_parallel(&x, &eps, 1);
    {
        let c = cluster(vibnn.clone(), 2, 2, 8);
        let ids: Vec<u64> = (0..x.rows())
            .map(|r| {
                loop {
                    match c.submit(x.row(r).to_vec()) {
                        Ok(id) => break id,
                        Err(VibnnError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
            })
            .collect();
        for (r, id) in ids.into_iter().enumerate() {
            let res = c.wait(id).expect("result");
            assert_eq!(
                bits(&res.proba),
                bits(reference.row(r)),
                "cluster diverged from batched inference at row {r}"
            );
        }
        c.shutdown();
    }

    // The raw batched upper bound (one predict_proba_parallel call).
    let start = Instant::now();
    let _ = std::hint::black_box(vibnn.predict_proba_parallel(&x, &eps, 0));
    let batched_rps = x.rows() as f64 / start.elapsed().as_secs_f64();

    let replica_grid = [1usize, 2, 4];
    let workers_grid = [1usize, 2];
    let batch_grid = [1usize, 8, 32];
    let mut rows = Vec::new();
    for &mb in &batch_grid {
        for &wk in &workers_grid {
            for &n in &replica_grid {
                // Warm-up pass, then measure.
                let _ = cluster_rps(vibnn.clone(), &x, n, wk, mb);
                let rps = cluster_rps(vibnn.clone(), &x, n, wk, mb);
                println!("replicas {n}  workers {wk}  max_batch {mb:3}  {rps:9.1} req/s");
                rows.push((n, wk, mb, rps));
            }
        }
    }

    // Best 4-replica vs best 1-replica queued throughput.
    let best = |target: usize| {
        rows.iter()
            .filter(|(n, ..)| *n == target)
            .map(|&(_, _, _, rps)| rps)
            .fold(0.0f64, f64::max)
    };
    let speedup_4v1 = best(4) / best(1);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(
        json,
        "  \"arch\": [{}, {}, {}],",
        w.features, w.hidden, w.classes
    );
    let _ = writeln!(json, "  \"requests\": {},", w.requests);
    let _ = writeln!(json, "  \"mc_samples\": {},", w.mc_samples);
    let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(
        json,
        "  \"batched_parallel_upper_bound_rps\": {batched_rps:.1},"
    );
    let _ = writeln!(json, "  \"results_bit_identical_to_batched\": true,");
    let _ = writeln!(json, "  \"queued_speedup_4_replicas_vs_1\": {speedup_4v1:.2},");
    if host_parallelism < 4 {
        let _ = writeln!(
            json,
            "  \"scaling_note\": \"host has {host_parallelism} core(s): at most \
             {host_parallelism} replica dispatchers run at once, so replicas beyond that \
             time-share the CPU and cannot raise requests/sec; the \u{2265}2x 4-vs-1 \
             scaling target needs \u{2265}4 cores\","
        );
    }
    json.push_str("  \"grid\": [\n");
    for (i, (n, wk, mb, rps)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"replicas\": {n}, \"workers\": {wk}, \"max_batch\": {mb}, \
             \"queued_requests_per_sec\": {rps:.1}}}{}",
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    write_report("BENCH_cluster.json", &json);
    println!(
        "batched upper bound {batched_rps:.1} req/s; 4-vs-1 replica speedup {speedup_4v1:.2}x \
         on {host_parallelism} core(s)"
    );
}
