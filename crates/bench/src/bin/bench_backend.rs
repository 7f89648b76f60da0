//! Machine-readable backend benchmark: writes `BENCH_backend.json`.
//!
//! Compares the three [`vibnn::backend::InferenceBackend`] implementations
//! — software float, quantized host (the default), and the cycle-ticked
//! accelerator model — on the same deployment and request stream, at
//! micro-batch sizes {1, 8, 32}. Reports requests/sec plus the hardware
//! ledger per request: cycles/request and nJ/request from the
//! [`vibnn::backend::BackendCost`] the engine accumulates (zero for host
//! backends by contract).
//!
//! Two per-MAC figures sit beside the throughput. For the quantized
//! backend, `stage_seconds` splits the same request stream into weight
//! generation, the integer forward, and softmax plus the Monte Carlo
//! reduction, timed around the public calls the backend makes
//! (`QuantizedBnn::sample_weights_with`, `forward_with_weights`,
//! `softmax_rows`, `reduce_mean`); `host_ns_per_mac` is the forward time
//! per integer MAC. For the cycle backend, `energy_nj_per_mac` is the
//! ledger's energy per request over the MACs a request performs.
//!
//! Before timing anything it asserts the determinism contract: every
//! backend must be worker-count invariant, the quantized backend must be
//! bit-identical to the historical batched path, and the cycle backend
//! bit-identical to the ticked functional model.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_backend.json` in
//! the working directory. `VIBNN_SCALE=quick` shrinks the workload.

use std::fmt::Write as _;
use std::time::Instant;

use vibnn::bnn::reduce_mean;
use vibnn::grng::{StreamFork, ZigguratGrng};
use vibnn::hw::CycleAccelerator;
use vibnn::nn::{softmax_rows, Matrix};
use vibnn::serve::{ServeConfig, ServeEngine};
use vibnn::{BackendKind, Vibnn};
use vibnn_bench::{deploy, synth_rows, RunScale};

const EPS_SEED: u64 = 0xBACE;

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
                requests: 64,
                mc_samples: 4,
                train_epochs: 2,
            },
            RunScale::Default => Self {
                features: 26,
                hidden: 64,
                classes: 2,
                requests: 256,
                mc_samples: 8,
                train_epochs: 6,
            },
            RunScale::Full => Self {
                features: 26,
                hidden: 128,
                classes: 2,
                requests: 1024,
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
) -> ServeEngine<ZigguratGrng> {
    ServeEngine::with_eps(
        vibnn,
        ServeConfig {
            max_batch,
            workers,
            backend: Some(backend),
            ..ServeConfig::default()
        },
        ZigguratGrng::new(EPS_SEED),
    )
    .expect("valid serve config")
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn served_bits(vibnn: Vibnn, backend: BackendKind, x: &Matrix, workers: usize) -> Vec<Vec<u32>> {
    engine(vibnn, backend, 8, workers)
        .submit_batch(x)
        .expect("serve")
        .iter()
        .map(|res| bits(&res.proba))
        .collect()
}

/// Pre-timing determinism gate: worker-count invariance for every
/// backend, quantized == historical batched path, cycle == ticked model.
fn assert_determinism(vibnn: &Vibnn, x: &Matrix) {
    for backend in [
        BackendKind::Software,
        BackendKind::Quantized,
        BackendKind::Cycle,
    ] {
        let one = served_bits(vibnn.clone(), backend, x, 1);
        let four = served_bits(vibnn.clone(), backend, x, 4);
        assert_eq!(one, four, "{backend:?} not worker-count invariant");
    }
    let quant = served_bits(vibnn.clone(), BackendKind::Quantized, x, 2);
    let reference = vibnn.predict_proba_parallel(x, &ZigguratGrng::new(EPS_SEED), 1);
    for (r, row) in quant.iter().enumerate() {
        assert_eq!(
            row,
            &bits(reference.row(r)),
            "quantized backend diverged from the batched path at row {r}"
        );
    }
    let cycle = served_bits(vibnn.clone(), BackendKind::Cycle, x, 2);
    let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
    let eps = ZigguratGrng::new(EPS_SEED);
    for (r, row) in cycle.iter().enumerate() {
        let ticked = sim.infer_forked(x.row(r), &eps).0;
        assert_eq!(
            row,
            &bits(&ticked),
            "cycle backend diverged from the ticked model at row {r}"
        );
    }
}

struct Sample {
    backend: BackendKind,
    max_batch: usize,
    rps: f64,
    cycles_per_request: f64,
    energy_nj_per_request: f64,
    /// Quantized backend only: the hand-timed stage split.
    stages: Option<Stages>,
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
/// Every mean row is checked against the batched path, so the stages
/// timed are the ones that produce the served bits.
fn quantized_stages(vibnn: &Vibnn, x: &Matrix, max_batch: usize) -> Stages {
    let q = vibnn.network();
    let eps = ZigguratGrng::new(EPS_SEED);
    let reference = vibnn.predict_proba_parallel(x, &eps, 1);
    let macs_per_sample_row = macs_per_row(vibnn);
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
        st.macs += (chunk.rows() * macs_per_sample_row * vibnn.mc_samples()) as f64;
        for r in 0..chunk.rows() {
            assert_eq!(
                bits(mean.row(r)),
                bits(reference.row(start + r)),
                "stage-by-stage quantized path diverged at row {}",
                start + r
            );
        }
    }
    st
}

fn measure(vibnn: Vibnn, backend: BackendKind, x: &Matrix, max_batch: usize) -> Sample {
    let eng = engine(vibnn, backend, max_batch, 2);
    let start = Instant::now();
    let (results, cost) = eng.submit_batch_costed(x).expect("serve");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), x.rows());
    let n = x.rows() as f64;
    Sample {
        backend,
        max_batch,
        rps: n / elapsed,
        cycles_per_request: cost.cycles as f64 / n,
        energy_nj_per_request: cost.energy_nj / n,
        stages: None,
    }
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let (x, _) = synth_rows(w.requests, w.features, 17);
    let sizes = [w.features, w.hidden, w.classes];
    let vibnn = deploy(&sizes, w.mc_samples, w.train_epochs);

    assert_determinism(&vibnn, &x);

    let backends = [
        BackendKind::Software,
        BackendKind::Quantized,
        BackendKind::Cycle,
    ];
    let max_batches = [1usize, 8, 32];
    let mut samples = Vec::new();
    for &backend in &backends {
        for &mb in &max_batches {
            // Warm-up pass, then measure.
            let _ = measure(vibnn.clone(), backend, &x, mb);
            let mut s = measure(vibnn.clone(), backend, &x, mb);
            println!(
                "{:>9?}  max_batch {mb:3}  {:10.1} req/s  {:12.1} cycles/req  {:10.2} nJ/req",
                s.backend, s.rps, s.cycles_per_request, s.energy_nj_per_request
            );
            if backend == BackendKind::Quantized {
                let _ = quantized_stages(&vibnn, &x, mb);
                let st = quantized_stages(&vibnn, &x, mb);
                println!(
                    "           stages: weights {:.4} s  forward {:.4} s  softmax+reduce {:.4} s  \
                     {:.3} ns/MAC",
                    st.weights,
                    st.forward,
                    st.softmax_reduce,
                    st.forward * 1e9 / st.macs
                );
                s.stages = Some(st);
            }
            samples.push(s);
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(
        json,
        "  \"arch\": [{}, {}, {}],",
        w.features, w.hidden, w.classes
    );
    let _ = writeln!(json, "  \"requests\": {},", w.requests);
    let _ = writeln!(json, "  \"mc_samples\": {},", w.mc_samples);
    let _ = writeln!(json, "  \"determinism_asserted_before_timing\": true,");
    let macs_per_request = (macs_per_row(&vibnn) * w.mc_samples) as f64;
    json.push_str("  \"grid\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let mut extra = String::new();
        if let Some(st) = &s.stages {
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
        if s.backend == BackendKind::Cycle {
            let _ = write!(
                extra,
                ", \"energy_nj_per_mac\": {:.4}",
                s.energy_nj_per_request / macs_per_request
            );
        }
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{:?}\", \"max_batch\": {}, \
             \"requests_per_sec\": {:.1}, \
             \"cycles_per_request\": {:.1}, \
             \"energy_nj_per_request\": {:.3}{extra}}}{}",
            s.backend,
            s.max_batch,
            s.rps,
            s.cycles_per_request,
            s.energy_nj_per_request,
            if i + 1 < samples.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    let path =
        std::env::var("VIBNN_BENCH_OUT").unwrap_or_else(|_| "BENCH_backend.json".to_owned());
    std::fs::write(&path, &json).expect("write benchmark output");
    println!("wrote {path}");
}
