//! Machine-readable serving-engine benchmark: writes `BENCH_serve.json`.
//!
//! Measures the synchronous [`vibnn::serve::ServeEngine::submit_batch`]
//! path — rows split into micro-batches — over one grid of the three
//! [`vibnn::backend::InferenceBackend`]s (software float, quantized host,
//! and the quantized datapath priced by the modeled accelerator) ×
//! `max_batch` × `workers`, plus the raw batched `predict_proba_parallel`
//! upper bound. Each grid row is the fastest of [`TIMED_PASSES`] timed
//! passes after a warm-up, with the three backends' passes alternating
//! within a `(max_batch, workers)` cell, and reports requests/sec beside
//! the hardware ledger per request: cycles/request and nJ/request from the
//! [`vibnn::backend::BackendCost`] the engine accumulates (zero for host
//! backends by contract). Queued serving (single-row submissions through
//! a backpressured queue) is `bench_cluster`'s job.
//!
//! Two per-MAC figures sit beside the throughput. Quantized rows carry
//! `stage_seconds`, which splits the same request stream into weight
//! generation, the integer forward, and softmax plus the Monte Carlo
//! reduction, timed around the public calls the backend makes
//! (`QuantizedBnn::sample_weights_with`, `forward_with_weights`,
//! `softmax_rows`, `reduce_mean`); `host_ns_per_mac` is the forward time
//! per integer MAC. Cycle rows carry `energy_nj_per_mac`, the ledger's
//! energy per request over the MACs a request performs.
//!
//! It then compares sampling policies at one fixed configuration:
//! `ExactN` (the pinned reference) against `EarlyExit`, reporting
//! requests/sec, accuracy on the synthetic labels, the mean
//! `samples_used`, and the resulting `policy_speedup`.
//!
//! Before timing anything it asserts the determinism contract: every
//! backend gives the same bits at 1 and 4 workers, the quantized backend
//! and its stage-by-stage replay equal the batched path, the cycle
//! backend serves the quantized bits and equals the ticked functional
//! model, and `ExactN` equals the batched path while drawing every Monte
//! Carlo sample.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_serve.json` in the
//! working directory. `VIBNN_SCALE=quick` shrinks the workload.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use vibnn::bnn::reduce_mean;
use vibnn::grng::{StreamFork, ZigguratGrng};
use vibnn::hw::CycleAccelerator;
use vibnn::nn::{softmax_rows, Matrix};
use vibnn::sampler::PolicySpec;
use vibnn::serve::{ServeConfig, ServeEngine, ServeResult};
use vibnn::{BackendKind, Vibnn};
use vibnn_bench::{bits, deploy, synth_rows, write_report, RunScale};

const EPS_SEED: u64 = 0xBEAC;

const BACKENDS: [BackendKind; 3] = [
    BackendKind::Software,
    BackendKind::Quantized,
    BackendKind::Cycle,
];

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

fn engine(
    vibnn: Vibnn,
    backend: BackendKind,
    max_batch: usize,
    workers: usize,
    policy: Option<PolicySpec>,
) -> ServeEngine<ZigguratGrng> {
    ServeEngine::with_eps(
        vibnn,
        ServeConfig {
            max_batch,
            workers,
            backend: Some(backend),
            policy,
            ..ServeConfig::default()
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid serve config")
}

fn served_bits(vibnn: &Vibnn, backend: BackendKind, x: &Matrix, workers: usize) -> Vec<Vec<u32>> {
    engine(vibnn.clone(), backend, 8, workers, None)
        .submit_batch(x)
        .expect("serve")
        .iter()
        .map(|res| bits(&res.proba))
        .collect()
}

/// Every pre-timing gate against `reference` (the batched path's bits):
/// worker-count invariance for every backend, quantized == cycle ==
/// batched path (quantized also replayed stage by stage), cycle == ticked
/// model, and `ExactN` == batched path at full samples.
fn assert_determinism(vibnn: &Vibnn, x: &Matrix, reference: &[Vec<u32>]) {
    for backend in BACKENDS {
        let one = served_bits(vibnn, backend, x, 1);
        let four = served_bits(vibnn, backend, x, 4);
        assert_eq!(one, four, "{backend:?} not worker-count invariant");
        if backend != BackendKind::Software {
            assert_eq!(
                one, reference,
                "{backend:?} backend diverged from the quantized batched path"
            );
        }
        if backend == BackendKind::Cycle {
            let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
            let eps = ZigguratGrng::new(EPS_SEED);
            for (r, row) in one.iter().enumerate() {
                let ticked = sim.infer_forked(x.row(r), &eps).0;
                assert_eq!(row, &bits(&ticked), "cycle backend diverged at row {r}");
            }
        }
    }
    for mb in [1, 8, 32] {
        quantized_stages(vibnn, x, mb, reference);
    }
    let exact = engine(
        vibnn.clone(),
        BackendKind::Quantized,
        128,
        1,
        Some(PolicySpec::ExactN),
    )
    .submit_batch(x)
    .expect("serve");
    for (r, res) in exact.iter().enumerate() {
        assert_eq!(bits(&res.proba), reference[r], "ExactN diverged at row {r}");
        assert_eq!(res.samples_used as usize, vibnn.mc_samples());
    }
}

const MAX_BATCHES: [usize; 3] = [1, 8, 32];
const WORKERS: [usize; 3] = [1, 2, 4];

/// Timed passes per grid row. A pass over the default workload takes a
/// few milliseconds, and one pass alone moves by up to a third between
/// runs, so each row reports its fastest pass.
const TIMED_PASSES: usize = 5;

/// One grid row's measurement: throughput and the per-request ledger.
struct Row {
    rps: f64,
    cycles_per_request: f64,
    energy_nj_per_request: f64,
}

/// Seconds spent in each stage of the quantized backend over the whole
/// request stream, and the integer MACs the forward stage performed.
#[derive(Default)]
struct Stages {
    weights: f64,
    forward: f64,
    softmax_reduce: f64,
    macs: f64,
}

/// Integer MACs one row costs per Monte Carlo sample.
fn macs_per_row(vibnn: &Vibnn) -> usize {
    vibnn
        .network()
        .layer_sizes()
        .windows(2)
        .map(|p| p[0] * p[1])
        .sum()
}

/// The quantized backend's micro-batches run stage by stage from the
/// public calls it makes: per sample `s`, weights from `eps.fork(s)`,
/// the integer forward and the softmax; per micro-batch the reduction.
/// Every mean row is checked against `reference` (the batched path's
/// bits), so the stages timed are the ones that produce the served bits.
fn quantized_stages(vibnn: &Vibnn, x: &Matrix, max_batch: usize, reference: &[Vec<u32>]) -> Stages {
    let q = vibnn.network();
    let eps = ZigguratGrng::new(EPS_SEED);
    let mut st = Stages::default();
    let mut eps_scratch = Vec::new();
    for start in (0..x.rows()).step_by(max_batch) {
        let chunk = x.rows_slice(start, (start + max_batch).min(x.rows()));
        let mut members = Vec::with_capacity(vibnn.mc_samples());
        for s in 0..vibnn.mc_samples() {
            let t = Instant::now();
            let weights = q.sample_weights_with(&mut eps.fork(s as u64), &mut eps_scratch);
            st.weights += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut probs = q.forward_with_weights(&chunk, &weights);
            st.forward += t.elapsed().as_secs_f64();
            let t = Instant::now();
            softmax_rows(&mut probs);
            st.softmax_reduce += t.elapsed().as_secs_f64();
            members.push(probs);
        }
        let t = Instant::now();
        let mean = reduce_mean(&members);
        st.softmax_reduce += t.elapsed().as_secs_f64();
        st.macs += (chunk.rows() * macs_per_row(vibnn) * vibnn.mc_samples()) as f64;
        for r in 0..chunk.rows() {
            assert_eq!(
                bits(mean.row(r)),
                reference[start + r],
                "stage-by-stage quantized path diverged at row {}",
                start + r
            );
        }
    }
    st
}

/// Every backend's grid row at one `(max_batch, workers)` cell: a
/// warm-up pass per backend, then [`TIMED_PASSES`] rounds of one timed
/// `submit_batch_costed` pass per backend. The backends alternate within
/// each round, so drift in the host's speed reaches them alike; each
/// reports its fastest pass, and every pass must charge the same ledger.
fn measure_cell(vibnn: &Vibnn, x: &Matrix, max_batch: usize, workers: usize) -> Vec<Row> {
    let engines: Vec<_> = BACKENDS
        .iter()
        .map(|&backend| engine(vibnn.clone(), backend, max_batch, workers, None))
        .collect();
    let ledgers: Vec<_> = engines
        .iter()
        .map(|eng| eng.submit_batch_costed(x).expect("warm-up serve").1)
        .collect();
    let mut fastest = [f64::INFINITY; BACKENDS.len()];
    for _ in 0..TIMED_PASSES {
        for (i, eng) in engines.iter().enumerate() {
            let start = Instant::now();
            let (results, cost) = eng.submit_batch_costed(x).expect("serve");
            fastest[i] = fastest[i].min(start.elapsed().as_secs_f64());
            assert_eq!(results.len(), x.rows());
            assert_eq!(cost, ledgers[i], "{:?} ledger changed between passes", BACKENDS[i]);
        }
    }
    let n = x.rows() as f64;
    ledgers
        .iter()
        .zip(fastest)
        .map(|(cost, secs)| Row {
            rps: n / secs,
            cycles_per_request: cost.cycles as f64 / n,
            energy_nj_per_request: cost.energy_nj / n,
        })
        .collect()
}

fn accuracy(results: &[ServeResult], y: &[usize]) -> f64 {
    let correct = results
        .iter()
        .zip(y)
        .filter(|(res, &label)| res.argmax == label)
        .count();
    correct as f64 / y.len().max(1) as f64
}

fn mean_samples(results: &[ServeResult]) -> f64 {
    let total: u64 = results.iter().map(|r| u64::from(r.samples_used)).sum();
    total as f64 / results.len().max(1) as f64
}

/// Times the quantized micro-batched path under each of `policies` at
/// `max_batch` 128 and one worker: a warm-up pass per policy, then
/// [`TIMED_PASSES`] rounds of one timed pass per policy. The policies
/// alternate within each round, as the backends do in [`measure_cell`],
/// so drift in the host's speed reaches them alike. Returns each
/// policy's requests/sec (from its fastest pass) and results.
fn policy_rps<const N: usize>(
    vibnn: &Vibnn,
    x: &Matrix,
    policies: [PolicySpec; N],
) -> ([f64; N], [Vec<ServeResult>; N]) {
    let engines =
        policies.map(|policy| engine(vibnn.clone(), BackendKind::Quantized, 128, 1, Some(policy)));
    let results: [Vec<ServeResult>; N] =
        std::array::from_fn(|i| engines[i].submit_batch(x).expect("warm-up serve"));
    let mut fastest = [f64::INFINITY; N];
    for _ in 0..TIMED_PASSES {
        for (i, eng) in engines.iter().enumerate() {
            let start = Instant::now();
            let again = eng.submit_batch(x).expect("serve");
            fastest[i] = fastest[i].min(start.elapsed().as_secs_f64());
            assert_eq!(
                again, results[i],
                "{} results changed between passes",
                policies[i]
            );
        }
    }
    (fastest.map(|secs| x.rows() as f64 / secs), results)
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let (x, y) = synth_rows(w.requests, w.features, 17);
    let sizes = [w.features, w.hidden, w.classes];
    let vibnn = deploy(&sizes, w.mc_samples, w.train_epochs);
    let reference = vibnn.predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), 1);
    let reference: Vec<Vec<u32>> = (0..x.rows()).map(|r| bits(reference.row(r))).collect();

    assert_determinism(&vibnn, &x, &reference);

    // The raw batched upper bound (one predict_proba_parallel call).
    let start = Instant::now();
    let _ = std::hint::black_box(vibnn.predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), 0));
    let batched_rps = x.rows() as f64 / start.elapsed().as_secs_f64();

    let macs_per_request = (macs_per_row(&vibnn) * w.mc_samples) as f64;
    let mut cells = HashMap::new();
    for mb in MAX_BATCHES {
        for wk in WORKERS {
            cells.insert((mb, wk), measure_cell(&vibnn, &x, mb, wk));
        }
    }
    let mut grid = String::new();
    for (b, backend) in BACKENDS.into_iter().enumerate() {
        for mb in MAX_BATCHES {
            // The stage split does not depend on the worker count: one
            // warm-up and one timed replay per max_batch.
            let stages = (backend == BackendKind::Quantized).then(|| {
                let _ = quantized_stages(&vibnn, &x, mb, &reference);
                quantized_stages(&vibnn, &x, mb, &reference)
            });
            for wk in WORKERS {
                let row = &cells[&(mb, wk)][b];
                println!(
                    "{backend:>9?}  max_batch {mb:3}  workers {wk}  {:10.1} req/s  \
                     {:8.1} cycles/req  {:10.2} nJ/req",
                    row.rps, row.cycles_per_request, row.energy_nj_per_request
                );
                let mut extra = String::new();
                if let Some(st) = &stages {
                    let _ = write!(
                        extra,
                        ", \"stage_seconds\": {{\"weights\": {:.6}, \"forward\": {:.6}, \
                         \"softmax_reduce\": {:.6}}}, \"host_ns_per_mac\": {:.4}",
                        st.weights,
                        st.forward,
                        st.softmax_reduce,
                        st.forward * 1e9 / st.macs
                    );
                }
                if backend == BackendKind::Cycle {
                    let _ = write!(
                        extra,
                        ", \"energy_nj_per_mac\": {:.4}",
                        row.energy_nj_per_request / macs_per_request
                    );
                }
                let _ = write!(
                    grid,
                    "{}    {{\"backend\": \"{backend:?}\", \"max_batch\": {mb}, \
                     \"workers\": {wk}, \"requests_per_sec\": {:.1}, \
                     \"cycles_per_request\": {:.1}, \"energy_nj_per_request\": {:.3}{extra}}}",
                    if grid.is_empty() { "" } else { ",\n" },
                    row.rps,
                    row.cycles_per_request,
                    row.energy_nj_per_request,
                );
            }
        }
    }

    // Sampling-policy comparison at one fixed configuration; `ExactN`'s
    // bits were pinned to the batched path before timing.
    let ([exact_rps, early_rps], [exact_results, early_results]) = policy_rps(
        &vibnn,
        &x,
        [
            PolicySpec::ExactN,
            PolicySpec::EarlyExit {
                k: 2,
                min_samples: 2,
            },
        ],
    );
    let exact_acc = accuracy(&exact_results, &y);
    let early_acc = accuracy(&early_results, &y);
    let early_mean_samples = mean_samples(&early_results);
    let policy_speedup = early_rps / exact_rps;
    println!(
        "policy exact-n     {exact_rps:9.1} req/s  acc {exact_acc:.3}  \
         mean samples {:.2}",
        w.mc_samples as f64
    );
    println!(
        "policy early-exit  {early_rps:9.1} req/s  acc {early_acc:.3}  \
         mean samples {early_mean_samples:.2}  speedup {policy_speedup:.2}x"
    );
    println!("batched parallel upper bound: {batched_rps:.1} req/s");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(
        json,
        "  \"arch\": [{}, {}, {}],",
        w.features, w.hidden, w.classes
    );
    let _ = writeln!(json, "  \"requests\": {},", w.requests);
    let _ = writeln!(json, "  \"mc_samples\": {},", w.mc_samples);
    let _ = writeln!(
        json,
        "  \"batched_parallel_upper_bound_rps\": {batched_rps:.1},"
    );
    let _ = writeln!(json, "  \"determinism_asserted_before_timing\": true,");
    let _ = writeln!(json, "  \"grid\": [\n{grid}\n  ],");
    json.push_str("  \"policy_comparison\": {\n");
    json.push_str(
        "    \"config\": {\"backend\": \"Quantized\", \"max_batch\": 128, \"workers\": 1},\n",
    );
    let _ = writeln!(
        json,
        "    \"exact_n\": {{\"requests_per_sec\": {exact_rps:.1}, \
         \"accuracy\": {exact_acc:.4}, \"samples_used_mean\": {:.2}}},",
        w.mc_samples as f64
    );
    let _ = writeln!(
        json,
        "    \"early_exit\": {{\"k\": 2, \"min_samples\": 2, \
         \"requests_per_sec\": {early_rps:.1}, \"accuracy\": {early_acc:.4}, \
         \"samples_used_mean\": {early_mean_samples:.2}}},"
    );
    let _ = writeln!(json, "    \"policy_speedup\": {policy_speedup:.2}");
    json.push_str("  }\n}\n");
    write_report("BENCH_serve.json", &json);
}
