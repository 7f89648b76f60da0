//! Machine-readable online-learning benchmark: writes `BENCH_online.json`.
//!
//! Runs the continuous train→serve loop ([`vibnn::online::OnlineRuntime`])
//! over a seeded drift stream — a feature-pair rotation ramping in
//! mid-run, shearing the class geometry the initial model was fitted on —
//! and compares two arms on the *identical* stream:
//!
//! - **baseline**: the trigger is disabled (`entropy_threshold = ∞`, no
//!   periodic fallback), so the founding checkpoint serves the whole run;
//! - **adaptive**: the windowed served-entropy trigger is armed, so drift
//!   raises predictive uncertainty, fires retrains, and hot-swaps the
//!   refreshed checkpoints into the serving cluster mid-traffic.
//!
//! Before timing anything it asserts the online determinism contract: the
//! adaptive run's full report (per-round digests, triggers, swap points)
//! must be bit-identical across trainer-thread and cluster-worker counts.
//! The headline metric is mean serving accuracy over the post-drift-onset
//! rounds; the adaptive arm must not lose to the frozen baseline.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_online.json` in
//! the working directory. `VIBNN_SCALE=quick` shrinks the workload.

use std::fmt::Write as _;
use std::time::Instant;

use vibnn::datasets::{Drift, DriftStream, SynthSpec};
use vibnn::online::{OnlineConfig, OnlineEventKind, OnlineReport, OnlineRuntime};
use vibnn_bench::{write_report, RunScale};

const STREAM_SEED: u64 = 0xD21F7;

struct Workload {
    rounds: usize,
    serve_rows: usize,
    train_rows: usize,
    hidden: usize,
    initial_epochs: usize,
    epochs_per_round: usize,
    mc_samples: usize,
    trigger_window: usize,
    /// Stream step where the rotation starts ramping in.
    drift_start: u64,
    /// Ramp length in stream steps.
    drift_ramp: u64,
}

impl Workload {
    fn from_scale(scale: RunScale) -> Self {
        match scale {
            RunScale::Quick => Self {
                rounds: 10,
                serve_rows: 24,
                train_rows: 32,
                hidden: 8,
                initial_epochs: 4,
                epochs_per_round: 2,
                mc_samples: 4,
                trigger_window: 48,
                drift_start: 8,
                drift_ramp: 4,
            },
            RunScale::Default => Self {
                rounds: 14,
                serve_rows: 48,
                train_rows: 64,
                hidden: 16,
                initial_epochs: 6,
                epochs_per_round: 3,
                mc_samples: 8,
                trigger_window: 96,
                drift_start: 10,
                drift_ramp: 6,
            },
            RunScale::Full => Self {
                rounds: 20,
                serve_rows: 64,
                train_rows: 96,
                hidden: 24,
                initial_epochs: 8,
                epochs_per_round: 4,
                mc_samples: 8,
                trigger_window: 128,
                drift_start: 14,
                drift_ramp: 8,
            },
        }
    }

    /// First round whose *serving* batch carries any drift (round `t`
    /// serves stream step `2 + 2t`).
    fn drift_onset_round(&self) -> u64 {
        self.drift_start.saturating_sub(2).div_ceil(2)
    }

    fn stream(&self) -> DriftStream {
        DriftStream::new(
            SynthSpec::new("bench-online", 6, 2, 10, 10).with_separability(1.5),
            STREAM_SEED,
        )
        .with(
            Drift::Rotation { radians: 1.4 },
            self.drift_start,
            self.drift_ramp,
        )
        .with(
            Drift::CovariateShift { magnitude: 0.8 },
            self.drift_start + self.drift_ramp,
            self.drift_ramp,
        )
    }

    fn config(&self, dir: &std::path::Path, threads: usize, workers: usize) -> OnlineConfig {
        let mut cfg = OnlineConfig::new(dir);
        cfg.rounds = self.rounds;
        cfg.serve_rows = self.serve_rows;
        cfg.train_rows = self.train_rows;
        cfg.hidden = vec![self.hidden];
        cfg.initial_epochs = self.initial_epochs;
        cfg.epochs_per_round = self.epochs_per_round;
        cfg.train_batch = 16;
        cfg.threads = threads;
        cfg.mc_samples = self.mc_samples;
        cfg.trigger_window = self.trigger_window;
        cfg.entropy_threshold = 0.15;
        cfg.periodic_fallback = 0; // pure uncertainty triggering
        cfg.cluster.workers = workers;
        cfg
    }
}

fn run_arm(w: &Workload, tag: &str, threads: usize, workers: usize, armed: bool) -> OnlineReport {
    let dir = std::env::temp_dir().join(format!("vibnn_bench_online_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cfg = w.config(&dir, threads, workers);
    if !armed {
        cfg.entropy_threshold = f64::INFINITY; // frozen: never retrains
    }
    let report = OnlineRuntime::new(cfg, w.stream())
        .expect("runtime")
        .run()
        .expect("online run");
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Mean serving accuracy over rounds at or after the drift onset.
fn drift_accuracy(report: &OnlineReport, onset: u64) -> f64 {
    let post: Vec<f64> = report
        .rounds
        .iter()
        .filter(|r| r.round >= onset)
        .map(|r| r.accuracy)
        .collect();
    post.iter().sum::<f64>() / post.len() as f64
}

fn mean_accuracy(report: &OnlineReport) -> f64 {
    report.rounds.iter().map(|r| r.accuracy).sum::<f64>() / report.rounds.len() as f64
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let onset = w.drift_onset_round();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Determinism gate: the adaptive run's full report — per-round result
    // digests, entropy aggregates, trigger firings, swap points — must be
    // bit-identical across trainer-thread and cluster-worker counts
    // before any number is worth reporting.
    let reference = run_arm(&w, "det_t1w1", 1, 1, true);
    for (threads, workers) in [(2usize, 2usize), (4, 1)] {
        let report = run_arm(&w, &format!("det_t{threads}w{workers}"), threads, workers, true);
        assert_eq!(
            report, reference,
            "online run diverged at threads={threads} workers={workers}"
        );
    }

    let start = Instant::now();
    let baseline = run_arm(&w, "baseline", 2, 2, false);
    let baseline_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let adaptive = run_arm(&w, "adaptive", 2, 2, true);
    let adaptive_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        adaptive, reference,
        "timed adaptive arm diverged from the determinism gate's report"
    );
    assert_eq!(baseline.swaps, 0, "the frozen baseline must never retrain");

    let acc_baseline = drift_accuracy(&baseline, onset);
    let acc_adaptive = drift_accuracy(&adaptive, onset);
    let triggers = adaptive
        .events
        .iter()
        .filter(|e| e.kind != OnlineEventKind::Swap)
        .count();
    assert!(
        acc_adaptive >= acc_baseline,
        "adaptive arm lost to the frozen baseline under drift: \
         {acc_adaptive:.4} < {acc_baseline:.4}"
    );

    println!("round  baseline-acc  adaptive-acc  adaptive-window  trig  swap");
    for (b, a) in baseline.rounds.iter().zip(&adaptive.rounds) {
        println!(
            "{:>5}  {:>11.1}%  {:>11.1}%  {:>14.4}  {:>4}  {:>4}",
            a.round,
            100.0 * b.accuracy,
            100.0 * a.accuracy,
            a.window_mean,
            if a.triggered { "yes" } else { "-" },
            if a.swapped { "yes" } else { "-" },
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(json, "  \"rounds\": {},", w.rounds);
    let _ = writeln!(json, "  \"serve_rows_per_round\": {},", w.serve_rows);
    let _ = writeln!(json, "  \"train_rows_per_round\": {},", w.train_rows);
    let _ = writeln!(json, "  \"hidden\": {},", w.hidden);
    let _ = writeln!(json, "  \"mc_samples\": {},", w.mc_samples);
    let _ = writeln!(json, "  \"entropy_threshold_nats\": 0.15,");
    let _ = writeln!(json, "  \"drift_onset_round\": {onset},");
    let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(json, "  \"reports_bit_identical_across_thread_counts\": true,");
    let _ = writeln!(json, "  \"drift_accuracy_baseline\": {acc_baseline:.4},");
    let _ = writeln!(json, "  \"drift_accuracy_adaptive\": {acc_adaptive:.4},");
    let _ = writeln!(
        json,
        "  \"mean_accuracy_baseline\": {:.4},",
        mean_accuracy(&baseline)
    );
    let _ = writeln!(
        json,
        "  \"mean_accuracy_adaptive\": {:.4},",
        mean_accuracy(&adaptive)
    );
    let _ = writeln!(json, "  \"triggers_fired\": {triggers},");
    let _ = writeln!(json, "  \"swaps_completed\": {},", adaptive.swaps);
    let _ = writeln!(json, "  \"baseline_run_secs\": {baseline_secs:.3},");
    let _ = writeln!(json, "  \"adaptive_run_secs\": {adaptive_secs:.3},");
    json.push_str("  \"events\": [\n");
    for (i, e) in adaptive.events.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"round\": {}, \"kind\": \"{:?}\", \"window_mean\": {:.6}, \
             \"version\": {}}}{}",
            e.round,
            e.kind,
            e.entropy_window_mean,
            e.version,
            if i + 1 < adaptive.events.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"rounds_adaptive\": [\n");
    for (i, r) in adaptive.rounds.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"round\": {}, \"accuracy\": {:.4}, \"entropy_mean\": {:.6}, \
             \"window_mean\": {:.6}, \"serving_version\": {}, \"digest\": {}}}{}",
            r.round,
            r.accuracy,
            r.entropy_mean,
            r.window_mean,
            r.serving_version,
            r.digest,
            if i + 1 < adaptive.rounds.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    write_report("BENCH_online.json", &json);
    println!(
        "post-drift accuracy: adaptive {:.1}% vs frozen baseline {:.1}% \
         ({} triggers, {} swaps)",
        100.0 * acc_adaptive,
        100.0 * acc_baseline,
        triggers,
        adaptive.swaps
    );
}
