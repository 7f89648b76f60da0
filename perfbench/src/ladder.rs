//! The traced run: the same request frames driven down the stack one layer
//! at a time, each call timed from the benchmark in its own span.
//!
//! For every frame the ladder calls, in turn: the ingest wire
//! (`IngestClient`), an in-process `ClusterEngine`, a `ServeEngine`, the
//! `Quantized` `InferenceBackend`, and then the backend's parts by hand:
//! per Monte Carlo sample the weight generator (`QuantizedBnn::
//! sample_weights_with`), the ε draws it makes (`fork` + `fill`), the
//! integer forward, and `softmax_rows`, then `reduce_mean`. Each span's
//! parent is the layer that calls it, so a layer's self time (span minus
//! child spans) is what that layer adds on top of the layer below. Every
//! layer's answers are checked against the workload's reference.
//! Afterwards it times one update's parts: checkpoint load, one training
//! epoch, build, and rollout.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vibnn::grng::{GaussianSource, StreamFork, ZigguratGrng};
use vibnn::ingest::{decode_reply, decode_request, encode_reply, encode_request, Reply, Request};
use vibnn::nn::softmax_rows;
use vibnn::sampler::{RowTracker, SampleDecision};
use vibnn::serve::ServeEngine;
use vibnn::{BackendKind, PolicySpec, Priority, Vibnn};

use crate::models::{self, Frame, Model};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wire::{self, Tally};
use crate::{fail, metric, Report};

/// Updates whose parts are timed after the frames.
const UPDATE_REPS: u64 = 7;

pub struct Input<'a> {
    pub model: &'a Model,
    pub frames: &'a [Frame],
    /// Reference probability bits per frame and row.
    pub refs: &'a [Vec<Vec<u32>>],
    pub max_batch: usize,
    /// Lane of row `i` of a frame on the in-process cluster.
    pub lane: fn(usize) -> Priority,
    pub wire_lane: Priority,
    pub seconds: f64,
    /// Where the spans are written.
    pub trace_path: PathBuf,
}

/// What the ladder measured, before it becomes metrics.
pub struct Layers {
    tracer: Tracer,
    tally: Tally,
    trace_path: PathBuf,
    /// Median wire round trip with no layer calls in between (µs).
    untraced_us: f64,
    /// Mean rows per micro-batch behind the wire.
    wire_batch_rows: f64,
    bytes_per_row: f64,
    forward_macs: f64,
    macs_per_row: f64,
    weights_per_sample: f64,
    samples_per_row: f64,
    budget_share: f64,
}

pub fn run(inp: &Input) -> Layers {
    let model = inp.model;
    let vibnn = &model.vibnn;
    let policy = model.policy;
    let samples = vibnn.mc_samples();
    let (server, mut client) = wire::serve_wire(model.cluster(vibnn.clone(), inp.max_batch));
    let cluster = model.cluster(vibnn.clone(), inp.max_batch);
    let eps = cluster.replica_eps();
    let serve_cfg = models::serve_config(inp.max_batch, policy);
    let engine = ServeEngine::with_eps(vibnn.clone(), serve_cfg, eps.clone())
        .unwrap_or_else(|e| fail(format!("serve engine: {e}")));
    let mut backend = BackendKind::Quantized.instantiate::<ZigguratGrng>(vibnn);
    let policy_exec = policy.instantiate();
    let adaptive = policy != PolicySpec::ExactN;
    let sizes = vibnn.network().layer_sizes();
    let macs_per_row: usize = sizes.windows(2).map(|p| p[0] * p[1]).sum();
    let weights_per_sample: usize = sizes.windows(2).map(|p| p[0] * p[1] + p[1]).sum();

    // Untraced first: the wire call alone, as the baseline for the
    // tracing overhead.
    let mut tally = Tally::default();
    let mut untraced_us = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(inp.seconds * 0.25);
    while untraced_us.len() < 2 || Instant::now() < end {
        let f = untraced_us.len() % inp.frames.len();
        let start = Instant::now();
        let replies = wire::send(&mut client, &inp.frames[f], inp.wire_lane);
        untraced_us.push(start.elapsed().as_secs_f64() * 1e6);
        tally.check(replies, &inp.refs[f], "untraced wire request");
    }

    let mut tr = Tracer::new();
    let mut bytes_per_row = 0.0;
    let mut forward_macs = 0.0;
    let mut eps_buf = vec![0.0f64; weights_per_sample];
    let mut scratch = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(inp.seconds * 0.75);
    let mut req = 0u64;
    while req < 2 || Instant::now() < end {
        let f = req as usize % inp.frames.len();
        let (frame, refs) = (&inp.frames[f], &inp.refs[f]);

        let (ingest, replies) = tr.span("ingest", None, req, || {
            wire::send(&mut client, frame, inp.wire_lane)
        });
        let results: Vec<_> = match &replies {
            Ok(rows) => rows
                .iter()
                .filter_map(|r| r.as_ref().ok().cloned())
                .collect(),
            Err(_) => Vec::new(),
        };
        tally.check(replies, refs, "traced wire request");

        // The codec on this frame's own request and reply.
        let (request, reply) = codec_pair(frame, results, inp.wire_lane, req);
        let (_, lens) = tr.span("ingest.codec", None, req, || {
            let (q, p) = (encode_request(&request), encode_reply(&reply));
            black_box((decode_request(&q).is_ok(), decode_reply(&p).is_ok()));
            (q.len(), p.len())
        });
        // Each frame carries a 4-byte length prefix.
        bytes_per_row = (lens.0 + lens.1 + 8) as f64 / frame.rows.len() as f64;

        let (cl, rows) = tr.span("cluster", Some(ingest), req, || {
            models::submit_and_wait(&cluster, frame, inp.lane)
        });
        tally.check(Ok(rows), refs, "traced cluster request");

        let (sv, served) = tr.span("serve", Some(cl), req, || engine.submit_batch(&frame.x));
        tally.check(
            served.map(|v| v.into_iter().map(Ok).collect()),
            refs,
            "traced serve call",
        );

        let (be, rows) = tr.span("backend", Some(sv), req, || {
            if adaptive {
                let (out, _) =
                    backend.serve_adaptive(&frame.x, policy_exec.as_ref(), samples, &eps, 1);
                out.into_iter().map(|o| o.into_result()).collect()
            } else {
                let (out, _) = backend.serve_microbatch(&frame.x, samples, &eps, 1);
                out.into_iter().map(Ok).collect()
            }
        });
        tally.check(Ok(rows), refs, "traced backend call");

        // The backend's parts, in its order. Under an adaptive policy rows
        // leave the forward pass as the policy stops them.
        let classes = sizes[sizes.len() - 1];
        let mut trackers: Vec<RowTracker> = (0..frame.rows.len())
            .map(|_| RowTracker::new(classes, samples))
            .collect();
        let mut active: Vec<usize> = (0..frame.rows.len()).collect();
        let mut members = Vec::with_capacity(samples);
        for s in 0..samples {
            if active.is_empty() {
                break;
            }
            let x = frame.x.select_rows(&active);
            let (w, weights) = tr.span("hw.weights", Some(be), req, || {
                vibnn
                    .network()
                    .sample_weights_with(&mut eps.fork(s as u64), &mut scratch)
            });
            tr.span("grng", Some(w), req, || {
                let mut src = eps.fork(s as u64);
                for p in sizes.windows(2) {
                    src.fill(&mut eps_buf[..p[0] * p[1]]);
                    src.fill(&mut eps_buf[..p[1]]);
                }
                black_box(&eps_buf);
            });
            let (_, mut probs) = tr.span("hw.forward", Some(be), req, || {
                vibnn.network().forward_with_weights(&x, &weights)
            });
            forward_macs += (x.rows() * macs_per_row) as f64;
            tr.span("nn.softmax", Some(be), req, || softmax_rows(&mut probs));
            if adaptive {
                let mut still = Vec::with_capacity(active.len());
                for (i, &r) in active.iter().enumerate() {
                    let obs = trackers[r].observe_f32(probs.row(i));
                    if matches!(
                        policy_exec.decide(&obs),
                        SampleDecision::Continue | SampleDecision::Escalate
                    ) {
                        still.push(r);
                    }
                }
                active = still;
            }
            members.push(probs);
        }
        if !adaptive {
            tr.span("nn.reduce", Some(be), req, || {
                black_box(vibnn::bnn::reduce_mean(&members));
            });
        }
        req += 1;
    }
    tally.failed += server.metrics().protocol_errors;
    drop(client);
    let wire_cluster = server.shutdown();
    let wire_batch_rows = wire::batch_rows_mean(&wire_cluster);
    wire_cluster.shutdown();

    let sampling = cluster.metrics();
    let served = sampling.served.max(1) as f64;
    let samples_per_row = sampling.sampling.samples_used_total as f64 / served;

    // One update's parts, each in its own span.
    for r in 0..UPDATE_REPS {
        let id = (1 << 32) + r;
        let (_, loaded) = tr.span("accelerator.load", None, id, || {
            Vibnn::from_bytes(&model.bytes)
        });
        loaded.unwrap_or_else(|e| fail(format!("load: {e}")));
        let mut bnn = model.bnn.clone();
        tr.span("bnn.train_epoch", None, id, || {
            bnn.train_epoch_mc_threads(&model.update_x, &model.update_y, model.train_batch, 1, 1)
        });
        let (_, next) = tr.span("accelerator.build", None, id, || {
            models::deploy(&bnn, &model.calib, policy)
        });
        let (_, swapped) = tr.span("cluster.rollout", None, id, || cluster.rollout(next));
        swapped.unwrap_or_else(|e| fail(format!("rollout: {e}")));
    }
    cluster.shutdown();

    Layers {
        tracer: tr,
        tally,
        trace_path: inp.trace_path.clone(),
        untraced_us: median(untraced_us),
        wire_batch_rows,
        bytes_per_row,
        forward_macs,
        macs_per_row: macs_per_row as f64,
        weights_per_sample: weights_per_sample as f64,
        samples_per_row,
        budget_share: samples_per_row / samples as f64,
    }
}

/// The request and reply the wire carried for `frame`.
fn codec_pair(
    frame: &Frame,
    results: Vec<vibnn::ServeResult>,
    priority: Priority,
    tag: u64,
) -> (Request, Reply) {
    if frame.rows.len() == 1 {
        let result = results
            .into_iter()
            .next()
            .unwrap_or_else(|| fail("no traced reply"));
        let request = Request::Predict {
            tag,
            priority,
            deadline_micros: 0,
            features: frame.rows[0].clone(),
        };
        (request, Reply::Predict { tag, result })
    } else {
        let request = Request::PredictBatch {
            tag,
            priority,
            deadline_micros: 0,
            dim: frame.x.cols(),
            features: frame.x.data().to_vec(),
        };
        let rows = results.into_iter().map(Ok).collect();
        (request, Reply::PredictBatch { tag, rows })
    }
}

impl Layers {
    /// Per-layer metrics. `loop_tally` counts the rows the workload
    /// served before the ladder; `batch_rows` overrides the wire's rows
    /// per micro-batch for a workload that serves in process.
    pub fn report(self, loop_tally: Tally, batch_rows: Option<f64>) -> Report {
        let t = &self.tracer;
        if let Err(e) = t.write(&self.trace_path) {
            fail(format!("writing {}: {e}", self.trace_path.display()));
        }
        let weights_us = t.median_us("hw.weights");
        let (traced_us, untraced_us) = (t.median_us("ingest"), self.untraced_us);
        let overhead_pct = (traced_us - untraced_us) / untraced_us * 100.0;
        println!(
            "trace: spans in {}; wire p50 {traced_us:.1} us traced vs {untraced_us:.1} us untraced ({overhead_pct:+.1}%)",
            self.trace_path.display()
        );
        let batch_rows = batch_rows.unwrap_or(self.wire_batch_rows);
        let failed = loop_tally.failed + self.tally.failed;
        let ms = |name: &str| t.median_us(name) / 1e3;
        Report {
            attempted: loop_tally.attempted + self.tally.attempted,
            failed,
            metrics: vec![
                metric("ingest.self_us", t.median_self_us("ingest"), "us"),
                metric("ingest.codec_us", t.median_us("ingest.codec"), "us"),
                metric("ingest.bytes_per_row", self.bytes_per_row, "bytes"),
                metric("cluster.self_us", t.median_self_us("cluster"), "us"),
                metric("cluster.batch_rows_mean", batch_rows, "rows"),
                metric("cluster.rollout_ms", ms("cluster.rollout"), "ms"),
                metric("cluster.failed", failed as f64, "count"),
                metric("serve.self_us", t.median_self_us("serve"), "us"),
                metric("backend.microbatch_us", t.median_us("backend"), "us"),
                metric("backend.finalize_us", t.median_self_us("backend"), "us"),
                metric("sampler.samples_per_row", self.samples_per_row, "samples"),
                metric("sampler.budget_share", self.budget_share, "fraction"),
                metric("hw.weights_us", weights_us, "us"),
                metric("hw.forward_us", t.median_us("hw.forward"), "us"),
                metric(
                    "hw.ns_per_weight",
                    weights_us * 1e3 / self.weights_per_sample,
                    "ns",
                ),
                metric(
                    "hw.ns_per_mac",
                    t.total_us("hw.forward") * 1e3 / self.forward_macs,
                    "ns",
                ),
                metric("hw.macs_per_row", self.macs_per_row, "count"),
                metric("grng.eps_us", t.median_us("grng"), "us"),
                metric(
                    "nn.softmax_reduce_us",
                    t.median_per_request_us(&["nn.softmax", "nn.reduce"]),
                    "us",
                ),
                metric("accelerator.load_ms", ms("accelerator.load"), "ms"),
                metric("accelerator.build_ms", ms("accelerator.build"), "ms"),
                metric("bnn.train_epoch_ms", ms("bnn.train_epoch"), "ms"),
                metric("trace.overhead_pct", overhead_pct, "%"),
            ],
        }
    }
}
