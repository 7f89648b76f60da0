//! The two workloads that go through the ingest wire: `interactive_wire`
//! (single-row `Predict` on the tabular model) and `bulk_mnist` (64-row
//! `PredictBatch` frames on the MNIST network). One client connection runs
//! a closed loop against a one-replica cluster.

use std::time::{Duration, Instant};

use vibnn::ingest::IngestServer;
use vibnn::{ClusterEngine, IngestClient, IngestConfig, Priority, ServeResult, Vibnn, VibnnError};

use crate::models::{self, Frame, Model};
use crate::pace::Pace;
use crate::stats::{median, median_of_unit_medians, peak_rss_mb, percentile};
use crate::{bits, fail, ladder, metric, Args, Report};

#[derive(Clone, Copy)]
pub enum Shape {
    Interactive,
    Bulk,
}

struct Plan {
    frame_rows: usize,
    max_batch: usize,
    lane: Priority,
    /// Seeded request rows; the closed loop cycles through them.
    pool_rows: usize,
    /// Operations per latency unit (see `median_of_unit_medians`).
    unit: usize,
    /// Requests between two side tasks (an update or a set-up).
    side_every: usize,
}

impl Plan {
    fn of(shape: Shape) -> Self {
        match shape {
            Shape::Interactive => Self {
                frame_rows: 1,
                max_batch: 32,
                lane: Priority::Interactive,
                pool_rows: 256,
                unit: 50,
                side_every: 50,
            },
            Shape::Bulk => Self {
                frame_rows: 64,
                max_batch: 64,
                lane: Priority::Batch,
                pool_rows: 256,
                unit: 1,
                side_every: 2,
            },
        }
    }
}

/// Per-row outcomes of one request, or the error that failed all of it.
pub type Replies = Result<Vec<Result<ServeResult, VibnnError>>, VibnnError>;

/// Sends one frame: a `Predict` for a single row, else a `PredictBatch`.
pub fn send(client: &mut IngestClient, frame: &Frame, lane: Priority) -> Replies {
    if frame.rows.len() == 1 {
        Ok(vec![client.predict_with(&frame.rows[0], lane, 0)])
    } else {
        client.predict_batch_with(&frame.rows, lane, 0)
    }
}

/// Requests sent, and rows that came back as errors.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Checks every served row of `replies` against `refs` bit for bit
    /// (a mismatch stops the benchmark) and counts failed rows. Returns
    /// the served rows' predicted classes.
    pub fn check(&mut self, replies: Replies, refs: &[Vec<u32>], what: &str) -> Vec<usize> {
        self.attempted += refs.len() as u64;
        let rows = match replies {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{what}: request failed: {e}");
                self.failed += refs.len() as u64;
                return Vec::new();
            }
        };
        let mut predicted = Vec::with_capacity(rows.len());
        for (row, expect) in rows.into_iter().zip(refs) {
            match row {
                Ok(res) if bits(&res.proba) == *expect => predicted.push(res.argmax),
                Ok(_) => fail(format!(
                    "{what}: served probabilities differ from the reference"
                )),
                Err(e) => {
                    eprintln!("{what}: row failed: {e}");
                    self.failed += 1;
                }
            }
        }
        predicted
    }
}

pub fn serve_wire(cluster: vibnn::ClusterEngine) -> (IngestServer, IngestClient) {
    let server = IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default())
        .unwrap_or_else(|e| fail(format!("bind: {e}")));
    let client = IngestClient::connect(server.local_addr())
        .unwrap_or_else(|e| fail(format!("connect: {e}")));
    (server, client)
}

/// Mean rows per micro-batch from a replica's batch-size histogram.
pub fn batch_rows_mean(cluster: &vibnn::ClusterEngine) -> f64 {
    let m = cluster.metrics();
    let (mut batches, mut rows) = (0u64, 0u64);
    for rep in &m.replicas {
        for (i, &n) in rep.batch_histogram.iter().enumerate() {
            batches += n;
            rows += n * (i as u64 + 1);
        }
    }
    rows as f64 / batches.max(1) as f64
}

/// Kind-3 checkpoint bytes to the first `Predict` reply over the wire,
/// in seconds at the reference pace.
fn setup_once(pace: &Pace, model: &Model, plan: &Plan, row: &[f32]) -> f64 {
    let start = pace.start();
    let vibnn = Vibnn::from_bytes(&model.bytes).unwrap_or_else(|e| fail(format!("load: {e}")));
    let (server, mut client) = serve_wire(model.cluster(vibnn, plan.max_batch));
    let first = client.predict(row);
    let secs = pace.stop(start);
    first.unwrap_or_else(|e| fail(format!("first predict: {e}")));
    drop(client);
    server.shutdown().shutdown();
    secs
}

/// One update: fine-tune, build, and roll out to `updater`, an idle
/// one-replica cluster. Returns milliseconds at the reference pace.
fn update_once(pace: &Pace, model: &Model, updater: &ClusterEngine) -> f64 {
    let start = pace.start();
    let (_, vibnn) = model.retrain(&model.update_x, &model.update_y);
    updater
        .rollout(vibnn)
        .unwrap_or_else(|e| fail(format!("rollout: {e}")));
    pace.stop(start) * 1e3
}

/// Closed loop for `seconds`: returns each request's round-trip seconds
/// at the reference pace, and the requests' tally. `between(i)` runs after
/// request `i`, outside its timing.
fn closed_loop(
    pace: &Pace,
    client: &mut IngestClient,
    frames: &[Frame],
    refs: &[Vec<Vec<u32>>],
    lane: Priority,
    seconds: f64,
    mut between: impl FnMut(usize),
) -> (Vec<f64>, Tally) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut secs = Vec::new();
    let mut i = 0;
    while secs.is_empty() || Instant::now() < end {
        let f = i % frames.len();
        let start = pace.start();
        let replies = send(client, &frames[f], lane);
        secs.push(pace.stop(start));
        tally.check(replies, &refs[f], "timed request");
        between(i);
        pace.tick();
        i += 1;
    }
    (secs, tally)
}

pub fn run(args: &Args, shape: Shape) -> Report {
    let plan = Plan::of(shape);
    let (model, pool) = match shape {
        Shape::Interactive => models::tabular(args.seed, plan.pool_rows),
        Shape::Bulk => models::mnist(args.seed, plan.pool_rows),
    };
    let pool = models::frames(&pool, plan.frame_rows);
    let eval = models::frames(&model.eval_x, plan.frame_rows);

    let cluster = model.cluster(model.vibnn.clone(), plan.max_batch);
    let eps = cluster.replica_eps();
    let (server, mut client) = serve_wire(cluster);
    let refs_of = |frames: &[Frame]| -> Vec<Vec<Vec<u32>>> {
        frames
            .iter()
            .map(|f| models::exact_reference(&model.vibnn, &f.x, &eps))
            .collect()
    };
    let mut pool_refs = refs_of(&pool);
    if args.perturb_reference {
        pool_refs[0][0][0] ^= 1;
    }
    let eval_refs = refs_of(&eval);

    // Correctness gate, before any timing: the evaluation set (which
    // gives `accuracy`) and every request frame, checked bit for bit.
    let mut gate = Tally::default();
    let mut predicted = Vec::new();
    for (frame, refs) in eval.iter().zip(&eval_refs) {
        predicted.extend(gate.check(send(&mut client, frame, plan.lane), refs, "evaluation"));
    }
    for (frame, refs) in pool.iter().zip(&pool_refs) {
        gate.check(send(&mut client, frame, plan.lane), refs, "request frame");
    }
    if gate.failed > 0 {
        fail(format!(
            "{} rows failed during the correctness gate",
            gate.failed
        ));
    }
    let accuracy = models::accuracy(&predicted, &model.eval_y[..predicted.len()]);

    if args.trace {
        drop(client);
        server.shutdown().shutdown();
        let layers = ladder::run(&ladder::Input {
            model: &model,
            frames: &pool,
            refs: &pool_refs,
            max_batch: plan.max_batch,
            lane: match shape {
                Shape::Interactive => |_| Priority::Interactive,
                Shape::Bulk => |_| Priority::Batch,
            },
            wire_lane: plan.lane,
            seconds: args.seconds,
            trace_path: crate::trace_path(args),
        });
        return layers.report(gate, None);
    }

    let pace = Pace::new();
    let warmup = (args.seconds * 0.1).min(1.0);
    closed_loop(
        &pace,
        &mut client,
        &pool,
        &pool_refs,
        plan.lane,
        warmup,
        |_| {},
    );
    // Set-ups and updates alternate between requests across the whole
    // timed loop, so a burst of host noise moves a few samples of each,
    // not the median.
    let updater = model.cluster(model.vibnn.clone(), plan.max_batch);
    let (mut setup_s, mut update_ms) = (Vec::new(), Vec::new());
    let mut side = |k: usize| {
        if k.is_multiple_of(2) {
            update_ms.push(update_once(&pace, &model, &updater));
        } else {
            setup_s.push(setup_once(&pace, &model, &plan, &pool[0].rows[0]));
        }
    };
    let (secs, mut tally) = closed_loop(
        &pace,
        &mut client,
        &pool,
        &pool_refs,
        plan.lane,
        args.seconds,
        |i| {
            if (i + 1).is_multiple_of(plan.side_every) {
                side((i + 1) / plan.side_every);
            }
        },
    );
    // A short run still reports one of each.
    side(0);
    side(1);
    updater.shutdown();
    let protocol_errors = server.metrics().protocol_errors;
    tally.failed += protocol_errors;
    drop(client);
    let cluster = server.shutdown();
    let batch_rows = batch_rows_mean(&cluster);
    cluster.shutdown();

    let us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
    let op_p50_us = median_of_unit_medians(&us, plan.unit);
    println!(
        "requests sent {} rows, succeeded {}, failed {} (protocol errors {protocol_errors})",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );
    let (kernel_ms, calibrations) = pace.summary();
    println!("host pace: calibration kernel {kernel_ms:.3} ms (median of {calibrations}); timings are rescaled to a 1 ms kernel");
    println!(
        "request latency p50 {op_p50_us:.1} us, p99 {:.1} us over {} requests; {batch_rows:.2} rows per micro-batch; {} set-ups, {} updates",
        percentile(us.clone(), 0.99),
        us.len(),
        setup_s.len(),
        update_ms.len()
    );

    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", median(setup_s), "s"),
            metric("latency_p50_us", op_p50_us, "us"),
            metric(
                "throughput_rps",
                plan.frame_rows as f64 * 1e6 / op_p50_us,
                "rows/s",
            ),
            metric("update_ms", median(update_ms), "ms"),
            metric("accuracy", accuracy, "fraction"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}
