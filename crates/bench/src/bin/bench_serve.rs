//! Machine-readable serving-engine benchmark: writes `BENCH_serve.json`.
//!
//! Measures requests/sec of the synchronous
//! [`vibnn::serve::ServeEngine::submit_batch`] path — rows split into
//! micro-batches — over a `max_batch × workers` grid, plus the raw
//! batched `predict_proba_parallel` upper bound. Before timing anything
//! it asserts the serving determinism contract: engine results must be
//! bit-identical to the one-shot batched call. Queued serving (single-row
//! submissions through a backpressured queue) is `bench_cluster`'s job.
//!
//! It then compares sampling policies at one fixed configuration:
//! `ExactN` (the pinned reference — re-asserted bit-identical to the
//! batched call before its timing counts) against `EarlyExit`, reporting
//! requests/sec, accuracy on the synthetic labels, the mean
//! `samples_used`, and the resulting `policy_speedup`.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_serve.json` in the
//! working directory. `VIBNN_SCALE=quick` shrinks the workload.

use std::fmt::Write as _;
use std::time::Instant;

use vibnn::grng::ZigguratGrng;
use vibnn::nn::Matrix;
use vibnn::sampler::PolicySpec;
use vibnn::serve::{ServeConfig, ServeEngine, ServeResult};
use vibnn::Vibnn;
use vibnn_bench::{deploy, synth_rows, RunScale};

const EPS_SEED: u64 = 0xBEAC;

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

fn engine(vibnn: Vibnn, max_batch: usize, workers: usize) -> ServeEngine<ZigguratGrng> {
    policy_engine(vibnn, max_batch, workers, None)
}

fn policy_engine(
    vibnn: Vibnn,
    max_batch: usize,
    workers: usize,
    policy: Option<PolicySpec>,
) -> ServeEngine<ZigguratGrng> {
    ServeEngine::with_eps(
        vibnn,
        ServeConfig {
            max_batch,
            workers,
            policy,
            ..ServeConfig::default()
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid serve config")
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

/// Times the synchronous micro-batched path under one sampling policy,
/// returning `(requests/sec, results)`.
fn policy_rps(
    vibnn: Vibnn,
    x: &Matrix,
    max_batch: usize,
    policy: PolicySpec,
) -> (f64, Vec<ServeResult>) {
    let eng = policy_engine(vibnn, max_batch, 1, Some(policy));
    let _ = eng.submit_batch(x).expect("warm-up serve");
    let start = Instant::now();
    let results = eng.submit_batch(x).expect("serve");
    let elapsed = start.elapsed().as_secs_f64();
    (x.rows() as f64 / elapsed, results)
}

/// Requests/sec for the synchronous `submit_batch` path (no queue; pure
/// micro-batched compute).
fn sync_rps(vibnn: Vibnn, x: &Matrix, max_batch: usize, workers: usize) -> f64 {
    let eng = engine(vibnn, max_batch, workers);
    let start = Instant::now();
    let results = eng.submit_batch(x).expect("serve");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), x.rows());
    x.rows() as f64 / elapsed
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let (x, y) = synth_rows(w.requests, w.features, 17);
    let sizes = [w.features, w.hidden, w.classes];
    let vibnn = deploy(&sizes, w.mc_samples, w.train_epochs);

    // Determinism gate: engine rows must be bit-identical to the batched
    // parallel call before any number is worth reporting.
    let reference = vibnn.predict_proba_parallel(&x, &ZigguratGrng::new(EPS_SEED), 1);
    let served = engine(vibnn.clone(), 16, 2)
        .submit_batch(&x)
        .expect("serve");
    for (r, res) in served.iter().enumerate() {
        let same = res
            .proba
            .iter()
            .zip(reference.row(r))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "serving diverged from batched inference at row {r}");
    }

    // The raw batched upper bound (one predict_proba_parallel call).
    let start = Instant::now();
    let _ = std::hint::black_box(vibnn.predict_proba_parallel(
        &x,
        &ZigguratGrng::new(EPS_SEED),
        0,
    ));
    let batched_rps = x.rows() as f64 / start.elapsed().as_secs_f64();

    let max_batches = [1usize, 8, 32];
    let workers_grid = [1usize, 2, 4];
    let mut rows = Vec::new();
    for &mb in &max_batches {
        for &wk in &workers_grid {
            // Warm-up pass, then measure.
            let _ = sync_rps(vibnn.clone(), &x, mb, wk);
            let sync = sync_rps(vibnn.clone(), &x, mb, wk);
            println!("max_batch {mb:3}  workers {wk}  sync {sync:9.1} req/s");
            rows.push((mb, wk, sync));
        }
    }

    // Sampling-policy comparison at one fixed configuration. `ExactN`
    // is the pinned reference: its bits must match the batched parallel
    // call (the historical serve path) before its timing counts.
    let early = PolicySpec::EarlyExit {
        k: 2,
        min_samples: 2,
    };
    let (exact_rps, exact_results) = policy_rps(vibnn.clone(), &x, 128, PolicySpec::ExactN);
    for (r, res) in exact_results.iter().enumerate() {
        let same = res
            .proba
            .iter()
            .zip(reference.row(r))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "ExactN diverged from the batched reference at row {r}");
        assert_eq!(res.samples_used as usize, w.mc_samples);
    }
    let (early_rps, early_results) = policy_rps(vibnn.clone(), &x, 128, early);
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
    let _ = writeln!(json, "  \"results_bit_identical_to_batched\": true,");
    json.push_str("  \"grid\": [\n");
    for (i, (mb, wk, sync)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"max_batch\": {mb}, \"workers\": {wk}, \
             \"sync_requests_per_sec\": {sync:.1}}}{}",
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"policy_comparison\": {\n");
    json.push_str("    \"config\": {\"max_batch\": 128, \"workers\": 1},\n");
    let _ = writeln!(json, "    \"exact_n_bit_identical_to_batched\": true,");
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

    let path =
        std::env::var("VIBNN_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_owned());
    std::fs::write(&path, &json).expect("write benchmark output");
    println!("wrote {path}");
    println!("batched parallel upper bound: {batched_rps:.1} req/s");
}
