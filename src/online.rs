//! The continuous train→serve loop: [`OnlineRuntime`].
//!
//! An online runtime owns a serving [`ClusterEngine`] and a background
//! trainer thread, and closes the loop between them over a deterministic
//! [`DriftStream`]: each **round** serves a fresh batch of streamed
//! requests through the cluster, folds the served predictive entropies
//! into a sliding trigger window, and — when the windowed mean crosses
//! [`OnlineConfig::entropy_threshold`] (or the periodic fallback fires) —
//! hands the round's training batch to the trainer. The trainer continues
//! the **same** Bayes-by-Backprop state (optimizer moments, ε substreams,
//! schedule position) through the shared round machinery, builds a fresh
//! deployment, and the runtime hot-swaps it across every replica via
//! [`ClusterEngine::rollout`] at the next round boundary — mid-traffic,
//! with nothing dropped.
//!
//! # Determinism contract
//!
//! Every decision the loop makes is a pure function of the configuration,
//! the stream seed, and the served request data:
//!
//! - stream batches are pure in `(spec, seed, step)`;
//! - per-request cluster results are bit-identical at any worker /
//!   replica / thread count (the cluster contract), and the runtime
//!   aggregates them in submission order, never from live completion-order
//!   metrics;
//! - training rounds are bit-identical at any thread count (the training
//!   engine contract), and retrains overlap exactly one round of serving
//!   before their swap applies at the next boundary;
//! - the loop state (trigger window, event log, trainer bytes) is
//!   persisted crash-safely at every round boundary, so a killed run
//!   resumed with [`OnlineRuntime::resume`] replays the remaining rounds
//!   **bit-identically** to one that was never interrupted.
//!
//! `tests/online_determinism.rs` pins all of the above.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use vibnn_bnn::checkpoint::{atomic_write, CheckpointError, WireReader, WireWriter};
use vibnn_bnn::{Bnn, BnnConfig, LrSchedule, TrainSchedule};
use vibnn_datasets::DriftStream;
use vibnn_grng::ZigguratGrng;
use vibnn_nn::Matrix;

use crate::cluster::{ClusterConfig, ClusterEngine};
use crate::pipeline::train_round;
use crate::serve::ServeResult;
use crate::{fnv1a, Vibnn, VibnnBuilder, VibnnError, FNV_OFFSET};

/// Checkpoint-envelope kind for the persisted online-loop state
/// (extends the kind-1/2/3 catalog in [`vibnn_bnn::checkpoint`]).
pub const KIND_ONLINE: u8 = 4;

/// Configuration for an [`OnlineRuntime`].
///
/// Plain fields: build one with [`OnlineConfig::new`] and override what
/// the workload needs. All sizes are per round unless stated otherwise.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// BNN initialization / training-ε seed.
    pub seed: u64,
    /// Rounds the loop runs before [`OnlineRuntime::run`] returns.
    pub rounds: usize,
    /// Streamed requests served per round.
    pub serve_rows: usize,
    /// Streamed training rows per retraining round.
    pub train_rows: usize,
    /// Hidden-layer widths (the input/output widths come from the
    /// stream's spec).
    pub hidden: Vec<usize>,
    /// Base learning rate.
    pub lr: f32,
    /// Epochs for the initial (round-0) fit.
    pub initial_epochs: usize,
    /// Epochs per incremental retraining round.
    pub epochs_per_round: usize,
    /// Training minibatch size.
    pub train_batch: usize,
    /// Monte Carlo gradient samples per training step.
    pub train_mc: usize,
    /// Trainer thread count (`0` honours `VIBNN_THREADS`; never affects
    /// results).
    pub threads: usize,
    /// Learning-rate schedule, indexed on lifetime epochs.
    pub lr_schedule: LrSchedule,
    /// Monte Carlo samples per served request.
    pub mc_samples: usize,
    /// Retrain when the windowed mean served entropy (nats) exceeds
    /// this. `f64::INFINITY` disables uncertainty triggering.
    ///
    /// The window consumes whatever entropy each served result carries:
    /// under an adaptive [`crate::sampler::PolicySpec`] on
    /// [`OnlineConfig::cluster`] that is the early-exit entropy tap —
    /// the estimate computed over however many samples the policy
    /// actually drew — so uncertainty-triggered retraining works
    /// unchanged (and cheaper) on adaptively sampled traffic.
    pub entropy_threshold: f64,
    /// Served requests in the sliding trigger window.
    pub trigger_window: usize,
    /// Also retrain every `n` rounds regardless of uncertainty
    /// (`0` disables the periodic fallback).
    pub periodic_fallback: usize,
    /// Serving-cluster shape, including the optional
    /// [`ClusterConfig::policy`] for adaptive sampling.
    pub cluster: ClusterConfig,
    /// Cluster serving-ε seed.
    pub cluster_seed: u64,
    /// Kind-3 deployment checkpoint path — always holds the version the
    /// cluster is currently serving (written before every rollout).
    pub deploy_path: PathBuf,
    /// Kind-4 loop-state checkpoint path — written crash-safely at every
    /// round boundary; [`OnlineRuntime::resume`] restarts from it.
    pub state_path: PathBuf,
}

impl OnlineConfig {
    /// A small default configuration writing its checkpoints under
    /// `dir`: 12 rounds of 64 served / 64 training rows, one 16-unit
    /// hidden layer, 2 replicas, entropy threshold 0.45 nats over a
    /// 128-request window, no periodic fallback.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        Self {
            seed: 1,
            rounds: 12,
            serve_rows: 64,
            train_rows: 64,
            hidden: vec![16],
            lr: 0.05,
            initial_epochs: 8,
            epochs_per_round: 4,
            train_batch: 16,
            train_mc: 1,
            threads: 0,
            lr_schedule: LrSchedule::Const,
            mc_samples: 8,
            entropy_threshold: 0.45,
            trigger_window: 128,
            periodic_fallback: 0,
            cluster: ClusterConfig {
                replicas: 2,
                max_batch: 16,
                max_queue: 256,
                ..ClusterConfig::default()
            },
            cluster_seed: 0x0815_EED0,
            deploy_path: dir.join("online_deploy.ckpt"),
            state_path: dir.join("online_state.ckpt"),
        }
    }
}

/// What happened at a loop decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineEventKind {
    /// The windowed entropy mean crossed the threshold; a retrain was
    /// dispatched.
    UncertaintyTrigger,
    /// The periodic fallback fired; a retrain was dispatched.
    PeriodicTrigger,
    /// A finished retrain was rolled out across the cluster.
    Swap,
}

/// One deterministic loop event, in firing order.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEvent {
    /// Round the event fired in (triggers fire at the end of their
    /// round; swaps apply at the end of the following round).
    pub round: u64,
    /// Event kind.
    pub kind: OnlineEventKind,
    /// Windowed entropy mean at the decision point.
    pub entropy_window_mean: f64,
    /// Deployment version after the event (swap count so far).
    pub version: u64,
}

/// Per-round aggregates over the served batch, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round index.
    pub round: u64,
    /// Fraction of served requests whose argmax matched the stream
    /// label.
    pub accuracy: f64,
    /// Mean predictive entropy (nats) of this round's served requests.
    pub entropy_mean: f64,
    /// Mean Monte Carlo spread of this round's served requests.
    pub mc_std_mean: f64,
    /// Sliding-window entropy mean after folding this round in (the
    /// trigger aggregate).
    pub window_mean: f64,
    /// FNV-1a digest over the served probability bits in submission
    /// order — the round's bit-identity witness.
    pub digest: u64,
    /// Whether a retrain was dispatched at the end of this round.
    pub triggered: bool,
    /// Whether a finished retrain was rolled out at the end of this
    /// round.
    pub swapped: bool,
    /// Deployment version this round was served by.
    pub serving_version: u64,
}

/// The loop's full deterministic record, from [`OnlineRuntime::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineReport {
    /// Per-round aggregates, in order.
    pub rounds: Vec<RoundReport>,
    /// Trigger and swap events, in firing order.
    pub events: Vec<OnlineEvent>,
    /// Rollouts completed.
    pub swaps: u64,
}

/// Work order for the trainer thread: continue training on one streamed
/// batch, then build a deployment calibrated on that batch.
struct TrainerJob {
    round: u64,
    x: Matrix,
    y: Vec<usize>,
}

struct TrainerDone {
    round: u64,
    result: Result<(Vibnn, Vec<u8>), VibnnError>,
}

/// Mutable loop state; exactly this (plus the trainer bytes) is what the
/// kind-4 state checkpoint persists.
struct LoopState {
    rounds_done: u64,
    swaps: u64,
    in_flight: Option<u64>,
    window: VecDeque<f64>,
    events: Vec<OnlineEvent>,
    rounds: Vec<RoundReport>,
    /// Kind-2 serialization of the trainer as of its last completed
    /// round (the resume seed for an interrupted retrain).
    trainer_bytes: Vec<u8>,
}

/// The continuous online-learning runtime. See the [module docs](self)
/// for the loop architecture and determinism contract.
///
/// # Example
///
/// ```
/// use vibnn::datasets::{Drift, DriftStream, SynthSpec};
/// use vibnn::online::{OnlineConfig, OnlineRuntime};
///
/// let dir = std::env::temp_dir().join(format!("vibnn_online_doc_{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let stream = DriftStream::new(
///     SynthSpec::new("live", 4, 2, 10, 10).with_separability(2.0),
///     7,
/// )
/// .with(Drift::CovariateShift { magnitude: 3.0 }, 2, 2);
///
/// let mut cfg = OnlineConfig::new(&dir);
/// cfg.rounds = 3;
/// cfg.serve_rows = 8;
/// cfg.train_rows = 16;
/// cfg.initial_epochs = 2;
/// cfg.epochs_per_round = 1;
/// cfg.mc_samples = 2;
/// cfg.periodic_fallback = 2; // retrain every 2 rounds as a fallback
/// cfg.cluster.replicas = 1;
///
/// let report = OnlineRuntime::new(cfg, stream)?.run()?;
/// assert_eq!(report.rounds.len(), 3);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), vibnn::VibnnError>(())
/// ```
pub struct OnlineRuntime {
    cfg: OnlineConfig,
    stream: DriftStream,
    cluster: Option<ClusterEngine<ZigguratGrng>>,
    job_tx: Option<Sender<TrainerJob>>,
    done_rx: Receiver<TrainerDone>,
    trainer: Option<JoinHandle<()>>,
    st: LoopState,
}

/// Stream-step layout: step 0 is the initial fit; round `t` then owns
/// steps `1 + 2t` (training) and `2 + 2t` (serving), so training and
/// serving batches never share rows.
fn train_step(round: u64) -> u64 {
    1 + 2 * round
}
fn serve_step(round: u64) -> u64 {
    2 + 2 * round
}

impl OnlineRuntime {
    /// Builds the loop from scratch: fits the initial model on stream
    /// step 0, deploys it to `deploy_path`, starts the serving cluster
    /// and the trainer thread, and persists the round-0 loop state.
    ///
    /// # Errors
    ///
    /// Training validation errors, [`VibnnError::Checkpoint`] on
    /// unwritable paths, and every [`VibnnBuilder::build`] error.
    pub fn new(cfg: OnlineConfig, stream: DriftStream) -> Result<Self, VibnnError> {
        let (x0, y0) = stream.batch(0, cfg.train_rows.max(cfg.train_batch));
        let mut sizes = vec![stream.spec().features()];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(stream.spec().classes());
        let mut bnn = Bnn::new(BnnConfig::new(&sizes).with_lr(cfg.lr), cfg.seed);
        train_round(
            &mut bnn,
            &x0,
            &y0,
            cfg.train_batch,
            cfg.train_mc,
            cfg.threads,
            &TrainSchedule {
                epochs: cfg.initial_epochs,
                lr: cfg.lr_schedule,
                early_stop: None,
            },
            None,
        )?;
        let trainer_bytes = bnn.to_bytes();
        let vibnn = VibnnBuilder::new(bnn.params())
            .mc_samples(cfg.mc_samples)
            .calibration(x0)
            .build()?;
        vibnn.save(&cfg.deploy_path)?;
        let st = LoopState {
            rounds_done: 0,
            swaps: 0,
            in_flight: None,
            window: VecDeque::new(),
            events: Vec::new(),
            rounds: Vec::new(),
            trainer_bytes,
        };
        let rt = Self::assemble(cfg, stream, vibnn, bnn, st)?;
        rt.save_state()?;
        Ok(rt)
    }

    /// Restarts an interrupted loop from its state checkpoint: reloads
    /// the serving deployment from `deploy_path`, the trainer from the
    /// persisted kind-2 bytes, and — if a retrain was in flight when the
    /// run died — re-dispatches it (its training batch regenerates from
    /// the stream). The continuation is bit-identical to a run that was
    /// never interrupted.
    ///
    /// # Errors
    ///
    /// [`VibnnError::Checkpoint`] on missing/corrupt state or deployment
    /// files.
    pub fn resume(cfg: OnlineConfig, stream: DriftStream) -> Result<Self, VibnnError> {
        let bytes = std::fs::read(&cfg.state_path).map_err(CheckpointError::Io)?;
        let st = read_state(&bytes)?;
        let bnn = Bnn::from_bytes(&st.trainer_bytes)?;
        let vibnn = Vibnn::load(&cfg.deploy_path)?;
        let resend = st.in_flight;
        let mut rt = Self::assemble(cfg, stream, vibnn, bnn, st)?;
        if let Some(round) = resend {
            rt.dispatch_retrain(round)?;
        }
        Ok(rt)
    }

    fn assemble(
        cfg: OnlineConfig,
        stream: DriftStream,
        vibnn: Vibnn,
        bnn: Bnn,
        st: LoopState,
    ) -> Result<Self, VibnnError> {
        let cluster =
            ClusterEngine::with_eps(vibnn, cfg.cluster, ZigguratGrng::new(cfg.cluster_seed))?;
        let (job_tx, job_rx) = channel::<TrainerJob>();
        let (done_tx, done_rx) = channel::<TrainerDone>();
        let tcfg = cfg.clone();
        let trainer = std::thread::spawn(move || trainer_loop(bnn, tcfg, &job_rx, &done_tx));
        Ok(Self {
            cfg,
            stream,
            cluster: Some(cluster),
            job_tx: Some(job_tx),
            done_rx,
            trainer: Some(trainer),
            st,
        })
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> u64 {
        self.st.rounds_done
    }

    /// The loop record so far (identical to what [`OnlineRuntime::run`]
    /// would return if the loop stopped now, minus any in-flight swap).
    pub fn report(&self) -> OnlineReport {
        OnlineReport {
            rounds: self.st.rounds.clone(),
            events: self.st.events.clone(),
            swaps: self.st.swaps,
        }
    }

    /// Runs up to `n` more rounds (stopping at the configured budget)
    /// and persists the loop state after each.
    ///
    /// # Errors
    ///
    /// Serving, training, and checkpoint errors; the loop state on disk
    /// stays consistent with the last completed round either way.
    pub fn run_rounds(&mut self, n: usize) -> Result<(), VibnnError> {
        for _ in 0..n {
            if self.st.rounds_done >= self.cfg.rounds as u64 {
                break;
            }
            self.run_round()?;
        }
        Ok(())
    }

    /// Runs every remaining round, applies any retrain still in flight,
    /// shuts the cluster and trainer down, and returns the full record.
    ///
    /// # Errors
    ///
    /// Everything [`OnlineRuntime::run_rounds`] can return.
    pub fn run(mut self) -> Result<OnlineReport, VibnnError> {
        while self.st.rounds_done < self.cfg.rounds as u64 {
            self.run_round()?;
        }
        // A retrain dispatched in the final round still lands: apply it
        // so `deploy_path` holds the freshest model, and log the swap at
        // the boundary round for a deterministic event record.
        if self.st.in_flight.is_some() {
            self.apply_finished_retrain(self.cfg.rounds as u64)?;
            self.save_state()?;
        }
        let report = self.report();
        self.teardown();
        Ok(report)
    }

    /// Abandons the loop **without** applying any in-flight retrain —
    /// the controlled stand-in for a kill: the state checkpoint on disk
    /// stays at the last round boundary, and [`OnlineRuntime::resume`]
    /// picks up from exactly there.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        // Closing the job channel stops the trainer; an unread
        // TrainerDone (an in-flight retrain at a kill) is dropped with
        // the channel — resume re-runs that round from the persisted
        // trainer bytes instead.
        drop(self.job_tx.take());
        if let Some(t) = self.trainer.take() {
            let _ = t.join();
        }
        if let Some(c) = self.cluster.take() {
            let _ = c.shutdown();
        }
    }

    fn cluster(&self) -> &ClusterEngine<ZigguratGrng> {
        self.cluster.as_ref().expect("cluster alive until teardown")
    }

    /// One full round: serve, aggregate, maybe apply a finished retrain,
    /// maybe dispatch a new one, persist.
    fn run_round(&mut self) -> Result<(), VibnnError> {
        let t = self.st.rounds_done;
        let serving_version = self.st.swaps;
        let (sx, sy) = self.stream.batch(serve_step(t), self.cfg.serve_rows);
        let results = self.serve_batch(&sx)?;

        let n = results.len().max(1) as f64;
        let mut digest = FNV_OFFSET;
        let mut correct = 0usize;
        let (mut esum, mut ssum) = (0.0f64, 0.0f64);
        for (r, res) in results.iter().enumerate() {
            for p in &res.proba {
                fnv1a(&mut digest, &p.to_bits().to_le_bytes());
            }
            if res.argmax == sy[r] {
                correct += 1;
            }
            esum += res.entropy;
            ssum += res.mc_std;
            if self.st.window.len() == self.cfg.trigger_window.max(1) {
                self.st.window.pop_front();
            }
            self.st.window.push_back(res.entropy);
        }
        let window_mean =
            self.st.window.iter().sum::<f64>() / self.st.window.len().max(1) as f64;

        // A retrain dispatched last round trained while this round
        // served the old model; fold it in at the boundary.
        let swapped = if self.st.in_flight.is_some() {
            self.apply_finished_retrain(t)?;
            true
        } else {
            false
        };

        // Trigger decision — driver-owned, from submission-order
        // aggregates only (live cluster metrics are completion-ordered
        // and therefore not replayable).
        let uncertainty = window_mean > self.cfg.entropy_threshold;
        let periodic = self.cfg.periodic_fallback > 0
            && (t + 1) % self.cfg.periodic_fallback as u64 == 0;
        let triggered = uncertainty || periodic;
        if triggered {
            self.st.events.push(OnlineEvent {
                round: t,
                kind: if uncertainty {
                    OnlineEventKind::UncertaintyTrigger
                } else {
                    OnlineEventKind::PeriodicTrigger
                },
                entropy_window_mean: window_mean,
                version: self.st.swaps,
            });
            self.dispatch_retrain(t)?;
        }

        self.st.rounds.push(RoundReport {
            round: t,
            accuracy: correct as f64 / n,
            entropy_mean: esum / n,
            mc_std_mean: ssum / n,
            window_mean,
            digest,
            triggered,
            swapped,
            serving_version,
        });
        self.st.rounds_done = t + 1;
        self.save_state()
    }

    /// Submits every row (in order, with backpressure-aware draining)
    /// and returns the results in submission order.
    fn serve_batch(&mut self, x: &Matrix) -> Result<Vec<ServeResult>, VibnnError> {
        let mut results: Vec<Option<ServeResult>> = (0..x.rows()).map(|_| None).collect();
        let mut pending: VecDeque<(usize, u64)> = VecDeque::new();
        for r in 0..x.rows() {
            loop {
                match self.cluster().submit(x.row(r).to_vec()) {
                    Ok(id) => {
                        pending.push_back((r, id));
                        break;
                    }
                    Err(VibnnError::QueueFull { .. }) => {
                        let (row, id) = pending.pop_front().expect("backpressure with empty queue");
                        results[row] = Some(self.cluster().wait(id)?);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        for (row, id) in pending {
            results[row] = Some(self.cluster().wait(id)?);
        }
        Ok(results.into_iter().map(|r| r.expect("every row waited")).collect())
    }

    fn dispatch_retrain(&mut self, round: u64) -> Result<(), VibnnError> {
        let (x, y) = self.stream.batch(train_step(round), self.cfg.train_rows);
        self.job_tx
            .as_ref()
            .expect("trainer alive until teardown")
            .send(TrainerJob { round, x, y })
            .map_err(|_| VibnnError::EngineStopped)?;
        self.st.in_flight = Some(round);
        Ok(())
    }

    /// Blocks for the in-flight retrain, persists the new deployment,
    /// and rolls it across the cluster. `at_round` is the boundary the
    /// swap is logged under.
    fn apply_finished_retrain(&mut self, at_round: u64) -> Result<(), VibnnError> {
        let expected = self.st.in_flight.take().expect("caller checked in_flight");
        let done = self.done_rx.recv().map_err(|_| VibnnError::EngineStopped)?;
        debug_assert_eq!(done.round, expected, "retrains complete in dispatch order");
        let (vibnn, bytes) = done.result?;
        vibnn.save(&self.cfg.deploy_path)?;
        self.cluster().rollout(vibnn)?;
        self.st.trainer_bytes = bytes;
        self.st.swaps += 1;
        let window_mean =
            self.st.window.iter().sum::<f64>() / self.st.window.len().max(1) as f64;
        self.st.events.push(OnlineEvent {
            round: at_round,
            kind: OnlineEventKind::Swap,
            entropy_window_mean: window_mean,
            version: self.st.swaps,
        });
        Ok(())
    }

    /// Persists the loop state crash-safely (kind-4 envelope, atomic
    /// temp-and-rename write).
    fn save_state(&self) -> Result<(), VibnnError> {
        let mut w = WireWriter::new(KIND_ONLINE);
        w.u64(self.st.rounds_done);
        w.u64(self.st.swaps);
        match self.st.in_flight {
            Some(r) => {
                w.u8(1);
                w.u64(r);
            }
            None => {
                w.u8(0);
                w.u64(0);
            }
        }
        w.dim(self.st.window.len());
        for &e in &self.st.window {
            w.f64(e);
        }
        w.dim(self.st.events.len());
        for ev in &self.st.events {
            w.u64(ev.round);
            w.u8(match ev.kind {
                OnlineEventKind::UncertaintyTrigger => 0,
                OnlineEventKind::PeriodicTrigger => 1,
                OnlineEventKind::Swap => 2,
            });
            w.f64(ev.entropy_window_mean);
            w.u64(ev.version);
        }
        w.dim(self.st.rounds.len());
        for r in &self.st.rounds {
            w.u64(r.round);
            w.f64(r.accuracy);
            w.f64(r.entropy_mean);
            w.f64(r.mc_std_mean);
            w.f64(r.window_mean);
            w.u64(r.digest);
            w.u8(u8::from(r.triggered));
            w.u8(u8::from(r.swapped));
            w.u64(r.serving_version);
        }
        w.dim(self.st.trainer_bytes.len());
        w.raw(&self.st.trainer_bytes);
        atomic_write(&self.cfg.state_path, &w.into_bytes())?;
        Ok(())
    }
}

fn read_state(bytes: &[u8]) -> Result<LoopState, VibnnError> {
    let mut r = WireReader::open(bytes, KIND_ONLINE)?;
    let rounds_done = r.u64()?;
    let swaps = r.u64()?;
    let in_flight = match (r.u8()?, r.u64()?) {
        (0, _) => None,
        (1, round) => Some(round),
        (flag, _) => {
            return Err(VibnnError::Checkpoint(CheckpointError::Corrupt(format!(
                "bad in-flight flag {flag}"
            ))))
        }
    };
    // Each count is checked against the unread bytes at its items'
    // encoded sizes: 8 bytes per window entry, 25 per event, 58 per round.
    let n = r.count(8)?;
    let mut window = VecDeque::with_capacity(n);
    for _ in 0..n {
        window.push_back(r.f64()?);
    }
    let n = r.count(25)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(OnlineEvent {
            round: r.u64()?,
            kind: match r.u8()? {
                0 => OnlineEventKind::UncertaintyTrigger,
                1 => OnlineEventKind::PeriodicTrigger,
                2 => OnlineEventKind::Swap,
                k => {
                    return Err(VibnnError::Checkpoint(CheckpointError::Corrupt(format!(
                        "unknown event kind {k}"
                    ))))
                }
            },
            entropy_window_mean: r.f64()?,
            version: r.u64()?,
        });
    }
    let n = r.count(58)?;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(RoundReport {
            round: r.u64()?,
            accuracy: r.f64()?,
            entropy_mean: r.f64()?,
            mc_std_mean: r.f64()?,
            window_mean: r.f64()?,
            digest: r.u64()?,
            triggered: r.u8()? != 0,
            swapped: r.u8()? != 0,
            serving_version: r.u64()?,
        });
    }
    let len = r.dim()?;
    let trainer_bytes = r.raw(len)?.to_vec();
    r.finish()?;
    Ok(LoopState {
        rounds_done,
        swaps,
        in_flight,
        window,
        events,
        rounds,
        trainer_bytes,
    })
}

/// The trainer thread: one incremental round per job on a **persistent**
/// `Bnn` (optimizer moments, ε substreams, and schedule position carry
/// across rounds), deployment built and calibrated on the job's batch.
fn trainer_loop(
    mut bnn: Bnn,
    cfg: OnlineConfig,
    jobs: &Receiver<TrainerJob>,
    done: &Sender<TrainerDone>,
) {
    while let Ok(job) = jobs.recv() {
        let result = train_round(
            &mut bnn,
            &job.x,
            &job.y,
            cfg.train_batch,
            cfg.train_mc,
            cfg.threads,
            &TrainSchedule {
                epochs: cfg.epochs_per_round,
                lr: cfg.lr_schedule,
                early_stop: None,
            },
            None,
        )
        .and_then(|_| {
            VibnnBuilder::new(bnn.params())
                .mc_samples(cfg.mc_samples)
                .calibration(job.x)
                .build()
                .map(|vibnn| (vibnn, bnn.to_bytes()))
        });
        if done.send(TrainerDone { round: job.round, result }).is_err() {
            break;
        }
    }
}
