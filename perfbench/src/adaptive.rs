//! `adaptive_retrain`: serving beside retraining, in process (no wire).
//!
//! A one-replica cluster samples under `EarlyExit { k: 2, min_samples: 2 }`.
//! Each round serves a 32-row batch from a drifting stream with the
//! interactive and batch lanes mixed, then fine-tunes the base network on
//! the round's 256-row training batch, builds the deployment, and rolls it
//! out. Rounds repeat in cycles of `ROUNDS` stream steps, so every cycle is
//! the same work and cycle medians are comparable across runs.

use std::time::{Duration, Instant};

use vibnn::datasets::{Drift, DriftStream};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::Matrix;
use vibnn::serve::ServeEngine;
use vibnn::{PolicySpec, Priority, Vibnn};

use crate::models::{self, Frame, Model, DATA_SEED};
use crate::pace::Pace;
use crate::stats::{median, median_of_unit_medians, peak_rss_mb};
use crate::wire::{batch_rows_mean, Tally};
use crate::{bits, fail, ladder, metric, Args, Report};

/// Rounds per cycle (distinct stream steps).
const ROUNDS: usize = 32;
const SERVE_ROWS: usize = 32;
const TRAIN_ROWS: usize = 256;
const MAX_BATCH: usize = 32;
const POLICY: PolicySpec = PolicySpec::EarlyExit {
    k: 2,
    min_samples: 2,
};

/// Every third request rides the interactive lane, the rest the batch lane.
fn lane(i: usize) -> Priority {
    if i.is_multiple_of(3) {
        Priority::Interactive
    } else {
        Priority::Batch
    }
}

struct Round {
    serve: Frame,
    train_x: Matrix,
    train_y: Vec<usize>,
}

/// Round `k` of the cycle for `seed`: the stream rotates and then shifts
/// part-way through the cycle, so later rounds serve drifted rows.
fn rounds(seed: u64) -> Vec<Round> {
    let base = (1u64 << 40) + (seed & 0xFFFF_FFFF) * 64;
    let stream = DriftStream::new(models::drift_spec(), DATA_SEED)
        .with(Drift::Rotation { radians: 1.2 }, base + 4, 6)
        .with(Drift::CovariateShift { magnitude: 1.0 }, base + 8, 6);
    (0..ROUNDS as u64)
        .map(|k| {
            let (x, _) = stream.batch(base + 2 * k, SERVE_ROWS);
            let (train_x, train_y) = stream.batch(base + 2 * k + 1, TRAIN_ROWS);
            Round {
                serve: models::frames(&x, SERVE_ROWS).remove(0),
                train_x,
                train_y,
            }
        })
        .collect()
}

/// The in-process reference for an adaptive policy: one `ServeEngine` on
/// the cluster's replica ε substream, same policy.
fn reference(vibnn: &Vibnn, x: &Matrix, eps: &ZigguratGrng) -> Vec<Vec<u32>> {
    let cfg = models::serve_config(MAX_BATCH, POLICY);
    ServeEngine::with_eps(vibnn.clone(), cfg, eps.clone())
        .and_then(|engine| engine.submit_batch(x))
        .unwrap_or_else(|e| fail(format!("reference: {e}")))
        .iter()
        .map(|r| bits(&r.proba))
        .collect()
}

/// Kind-3 checkpoint bytes to the first served reply, in process, in
/// seconds at the reference pace.
fn setup_once(pace: &Pace, model: &Model, row: &[f32]) -> f64 {
    let start = pace.start();
    let vibnn = Vibnn::from_bytes(&model.bytes).unwrap_or_else(|e| fail(format!("load: {e}")));
    let cluster = model.cluster(vibnn, MAX_BATCH);
    let first = cluster.submit(row.to_vec()).and_then(|id| cluster.wait(id));
    let secs = pace.stop(start);
    first.unwrap_or_else(|e| fail(format!("first predict: {e}")));
    cluster.shutdown();
    secs
}

/// Seconds spent serving and updating in one round, at the reference pace.
struct RoundTime {
    serve: f64,
    update: f64,
}

pub fn run(args: &Args) -> Report {
    let model = models::drift_base(POLICY);
    let rounds = rounds(args.seed);

    let cluster = model.cluster(model.vibnn.clone(), MAX_BATCH);
    let eps = cluster.replica_eps();
    // Round t serves with the model retrained in round t - 1 (the base
    // model in round 0), so the cycle's references are fixed in advance.
    let retrained: Vec<Vibnn> = rounds
        .iter()
        .map(|r| model.retrain(&r.train_x, &r.train_y).1)
        .collect();
    let mut cycle_refs: Vec<Vec<Vec<u32>>> = (0..ROUNDS)
        .map(|k| {
            reference(
                &retrained[(k + ROUNDS - 1) % ROUNDS],
                &rounds[k].serve.x,
                &eps,
            )
        })
        .collect();
    let base_refs: Vec<Vec<Vec<u32>>> = rounds
        .iter()
        .map(|r| reference(&model.vibnn, &r.serve.x, &eps))
        .collect();
    if args.perturb_reference {
        cycle_refs[1][0][0] ^= 1;
    }

    // Correctness gate: the evaluation set under the base model (which
    // gives `accuracy`), then one full cycle of rounds.
    let mut gate = Tally::default();
    let mut predicted = Vec::new();
    for frame in models::frames(&model.eval_x, SERVE_ROWS) {
        let refs = reference(&model.vibnn, &frame.x, &eps);
        predicted.extend(gate.check(
            Ok(models::submit_and_wait(&cluster, &frame, lane)),
            &refs,
            "evaluation",
        ));
    }
    let accuracy = models::accuracy(&predicted, &model.eval_y[..predicted.len()]);
    let pace = Pace::new();
    let round = |t: usize, tally: &mut Tally| -> RoundTime {
        let k = t % ROUNDS;
        let refs = if t == 0 {
            &base_refs[0]
        } else {
            &cycle_refs[k]
        };
        let start = pace.start();
        let replies = models::submit_and_wait(&cluster, &rounds[k].serve, lane);
        let serve = pace.stop(start);
        tally.check(Ok(replies), refs, "round");
        let start = pace.start();
        let (_, vibnn) = model.retrain(&rounds[k].train_x, &rounds[k].train_y);
        cluster
            .rollout(vibnn)
            .unwrap_or_else(|e| fail(format!("rollout: {e}")));
        let update = pace.stop(start);
        pace.tick();
        RoundTime { serve, update }
    };
    let mut t = 0usize;
    while t <= ROUNDS {
        round(t, &mut gate);
        t += 1;
    }
    if gate.failed > 0 {
        fail(format!(
            "{} rows failed during the correctness gate",
            gate.failed
        ));
    }

    // Warm-up, then whole cycles only.
    let mut tally = Tally::default();
    let warm_end = Instant::now() + Duration::from_secs_f64((args.seconds * 0.1).min(1.0));
    while Instant::now() < warm_end || !t.is_multiple_of(ROUNDS) {
        round(t, &mut tally);
        t += 1;
    }
    let measured = if args.trace {
        args.seconds * 0.3
    } else {
        args.seconds
    };
    let end = Instant::now() + Duration::from_secs_f64(measured);
    let mut tally = Tally::default();
    let mut times = Vec::new();
    // One set-up after every cycle samples set-up across the whole run.
    let mut setup_s = Vec::new();
    while times.is_empty() || Instant::now() < end {
        times.push(
            (t..t + ROUNDS)
                .map(|t| round(t, &mut tally))
                .collect::<Vec<_>>(),
        );
        t += ROUNDS;
        if !args.trace {
            setup_s.push(setup_once(&pace, &model, &rounds[0].serve.rows[0]));
        }
    }
    let batch_rows = batch_rows_mean(&cluster);
    let sampling = cluster.metrics().sampling;
    cluster.shutdown();

    let update_ms = median(
        times
            .iter()
            .map(|c| c.iter().map(|r| r.update).sum::<f64>() * 1e3 / ROUNDS as f64)
            .collect(),
    );
    let round_us: Vec<f64> = times.iter().flatten().map(|r| r.serve * 1e6).collect();
    let round_p50_us = median_of_unit_medians(&round_us, ROUNDS);
    let (kernel_ms, calibrations) = pace.summary();
    println!("host pace: calibration kernel {kernel_ms:.3} ms (median of {calibrations}); timings are rescaled to a 1 ms kernel");
    println!(
        "rows sent {}, succeeded {}, failed {}; {} cycles of {ROUNDS} rounds; \
         {batch_rows:.2} rows per micro-batch; {:.2} samples per row",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed,
        times.len(),
        sampling.mean_samples
    );

    if args.trace {
        let layers = ladder::run(&ladder::Input {
            model: &model,
            frames: &rounds.iter().map(|r| r.serve.clone()).collect::<Vec<_>>(),
            refs: &base_refs,
            max_batch: MAX_BATCH,
            lane,
            wire_lane: Priority::Batch,
            seconds: args.seconds * 0.7,
            trace_path: crate::trace_path(args),
        });
        return layers.report(tally, Some(batch_rows));
    }

    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", median(setup_s), "s"),
            metric("latency_p50_us", round_p50_us, "us"),
            metric(
                "throughput_rps",
                SERVE_ROWS as f64 * 1e6 / round_p50_us,
                "rows/s",
            ),
            metric("update_ms", update_ms, "ms"),
            metric("accuracy", accuracy, "fraction"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}
