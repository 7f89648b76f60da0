//! The serving engine: many concurrent single-row inference requests on
//! one deployed accelerator, coalesced into micro-batches.
//!
//! VIBNN's deployment story (paper Section 1) is an accelerator serving
//! large volumes of small Bayesian-inference queries. [`ServeEngine`]
//! is the software front-end for that: callers submit single feature
//! rows, the engine queues them, coalesces up to
//! [`ServeConfig::max_batch`] rows into one micro-batch, runs the batch
//! through the selected backend's sampling loop
//! ([`InferenceBackend::serve_adaptive`]) under the engine's sampling
//! policy, and returns per-request probabilities plus
//! predictive-uncertainty estimates. Under the default
//! [`PolicySpec::ExactN`] that loop draws every configured sample, and
//! the samples of a micro-batch run in parallel on
//! [`ServeConfig::workers`] threads.
//!
//! # Determinism
//!
//! The engine owns its ε stream and forks it per Monte Carlo sample:
//! sample `s` of **every** micro-batch draws from `eps.fork(s)` — the
//! identical substream assignment `Vibnn::predict_proba_parallel` uses.
//! Because the fixed-point datapath processes rows independently, a
//! request's result depends only on its feature row and the engine's ε
//! seed, **never** on arrival order, queue state, batch composition, or
//! worker count. Stacking the results of N single-row requests
//! reproduces the one-shot batched `predict_proba_parallel` call bit for
//! bit — the serve-determinism integration suite pins this at 1/2/4
//! workers for permuted arrival orders.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use vibnn_grng::{StreamFork, ZigguratGrng};
use vibnn_nn::Matrix;

use crate::backend::{BackendCost, BackendKind, InferenceBackend, RowOutcome};
use crate::sampler::{PolicySpec, SamplingPolicy};
use crate::{Vibnn, VibnnError};

/// Sizing knobs for a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests coalesced into one micro-batch (default 32).
    pub max_batch: usize,
    /// Queue capacity; submissions beyond it get
    /// [`VibnnError::QueueFull`] (default 1024).
    pub max_queue: usize,
    /// Worker threads for the Monte Carlo ensemble of each micro-batch
    /// (`0` honours `VIBNN_THREADS`; default 0). Never affects results.
    pub workers: usize,
    /// Which [`BackendKind`] to dispatch micro-batches through. `None`
    /// (the default) honours the deployment's default backend
    /// (`VibnnBuilder::backend`, itself defaulting to
    /// [`BackendKind::Quantized`] — the historical path).
    pub backend: Option<BackendKind>,
    /// Which sampling [`PolicySpec`] governs per-request Monte Carlo
    /// budgets. `None` (the default) honours the deployment's default
    /// policy (`VibnnBuilder::sampling_policy`, itself defaulting to
    /// [`PolicySpec::ExactN`] — the pinned full-budget reference).
    pub policy: Option<PolicySpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_queue: 1024,
            workers: 0,
            backend: None,
            policy: None,
        }
    }
}

/// One served prediction: the Monte Carlo mean probabilities plus two
/// predictive-uncertainty summaries derived from the MC members.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Request id ([`ServeHandle::submit`] order; for the synchronous
    /// [`ServeEngine::submit_batch`], the row index within the call).
    pub id: u64,
    /// Mean class probabilities — bit-identical to the corresponding row
    /// of `Vibnn::predict_proba_parallel` under the engine's ε source.
    pub proba: Vec<f32>,
    /// Most probable class (lowest index wins ties).
    pub argmax: usize,
    /// Predictive entropy of the mean probabilities, in nats (total
    /// uncertainty; `ln(classes)` is maximal).
    pub entropy: f64,
    /// Mean over classes of the standard deviation across the Monte Carlo
    /// member probabilities (the ensemble-spread / model-uncertainty
    /// signal that motivates BNNs).
    pub mc_std: f64,
    /// Monte Carlo samples actually drawn for this request. Equal to the
    /// deployment's `mc_samples` under [`PolicySpec::ExactN`]; an
    /// adaptive policy may stop earlier (the per-request speedup
    /// metric, aggregated in `ClusterMetrics` and carried per reply on
    /// the ingest wire).
    pub samples_used: u32,
}

/// A deployed [`Vibnn`] wrapped for request serving, with an internally
/// owned ε stream (see the [module docs](self) for the determinism
/// contract).
///
/// Use it synchronously via [`submit_batch`](Self::submit_batch), or call
/// [`spawn`](Self::spawn) for a thread-backed queue with backpressure.
///
/// # Example
///
/// ```
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::nn::Matrix;
/// use vibnn::serve::{ServeConfig, ServeEngine};
/// use vibnn::VibnnBuilder;
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 3]), 7);
/// let vibnn = VibnnBuilder::new(bnn.params())
///     .mc_samples(4)
///     .calibration(Matrix::zeros(2, 4))
///     .build()?;
/// let engine = ServeEngine::new(vibnn, ServeConfig::default())?;
/// let results = engine.submit_batch(&Matrix::zeros(5, 4))?;
/// assert_eq!(results.len(), 5);
/// let sum: f32 = results[0].proba.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-5);
/// # Ok::<(), vibnn::VibnnError>(())
/// ```
pub struct ServeEngine<S: StreamFork + Sync = ZigguratGrng> {
    vibnn: Vibnn,
    cfg: ServeConfig,
    eps: S,
    /// The dispatch slot: the selected backend plus its cumulative
    /// cost, behind one uncontended per-micro-batch lock so the
    /// engine's `&self` submission API survives backends that mutate
    /// (the cycle simulator's counters).
    backend: Mutex<BackendSlot<S>>,
    /// The resolved sampling policy ([`ServeConfig::policy`], falling
    /// back to the deployment default). Every micro-batch runs through
    /// the backend's [`InferenceBackend::serve_adaptive`] under it;
    /// `ExactN` simply never stops a row early.
    policy: PolicySpec,
    policy_exec: Box<dyn SamplingPolicy>,
}

struct BackendSlot<S: StreamFork + Sync> {
    exec: Box<dyn InferenceBackend<S>>,
    cost: BackendCost,
}

impl<S: StreamFork + Sync> std::fmt::Debug for ServeEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("cfg", &self.cfg)
            .field("backend", &self.backend_kind())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl ServeEngine<ZigguratGrng> {
    /// Wraps a deployment with a default software ε source
    /// (`ZigguratGrng` seeded from a fixed engine constant). Use
    /// [`with_eps`](Self::with_eps) to serve from a specific generator —
    /// e.g. one of the hardware GRNGs, or a known seed for reproducible
    /// comparisons.
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `max_batch` or `max_queue` is 0.
    pub fn new(vibnn: Vibnn, cfg: ServeConfig) -> Result<Self, VibnnError> {
        Self::with_eps(vibnn, cfg, ZigguratGrng::new(0x5EED))
    }
}

impl<S: StreamFork + Sync> ServeEngine<S> {
    /// Wraps a deployment with an explicit ε source.
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `max_batch` or `max_queue` is 0.
    pub fn with_eps(vibnn: Vibnn, cfg: ServeConfig, eps: S) -> Result<Self, VibnnError> {
        if cfg.max_batch == 0 {
            return Err(VibnnError::BadServeConfig("max_batch must be positive"));
        }
        if cfg.max_queue == 0 {
            return Err(VibnnError::BadServeConfig("max_queue must be positive"));
        }
        let kind = cfg.backend.unwrap_or_else(|| vibnn.default_backend());
        let exec = kind.instantiate::<S>(&vibnn);
        let policy = cfg.policy.unwrap_or_else(|| vibnn.default_policy());
        policy.validate().map_err(VibnnError::BadServeConfig)?;
        let policy_exec = policy.instantiate();
        Ok(Self {
            vibnn,
            cfg,
            eps,
            backend: Mutex::new(BackendSlot {
                exec,
                cost: BackendCost::default(),
            }),
            policy,
            policy_exec,
        })
    }

    /// The wrapped deployment.
    pub fn vibnn(&self) -> &Vibnn {
        &self.vibnn
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Which backend this engine dispatches micro-batches through.
    pub fn backend_kind(&self) -> BackendKind {
        self.lock_backend().exec.kind()
    }

    /// Which sampling policy governs per-request Monte Carlo budgets.
    pub fn sampling_policy(&self) -> PolicySpec {
        self.policy
    }

    /// Cumulative [`BackendCost`] charged by every micro-batch served
    /// so far (host backends charge zero cycles/energy).
    pub fn cost(&self) -> BackendCost {
        self.lock_backend().cost
    }

    fn lock_backend(&self) -> MutexGuard<'_, BackendSlot<S>> {
        self.backend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Synchronously serves a batch of requests (one per row of `x`):
    /// rows are coalesced into micro-batches of at most
    /// [`ServeConfig::max_batch`] and run through the backend's Monte
    /// Carlo sampling loop on [`ServeConfig::workers`] threads. Results
    /// come back in row order with `id` = row index.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::ShapeMismatch`] — `x` is not
    ///   [`Vibnn::input_dim`] columns wide.
    /// - [`VibnnError::Abstained`] — a risk-tiered policy declined one
    ///   of the rows (use
    ///   [`Self::submit_batch_outcomes_costed`] to attribute
    ///   abstentions per row instead of failing the batch).
    pub fn submit_batch(&self, x: &Matrix) -> Result<Vec<ServeResult>, VibnnError> {
        self.submit_batch_costed(x).map(|(results, _)| results)
    }

    /// [`Self::submit_batch`] plus the [`BackendCost`] this call charged
    /// (also folded into the engine's cumulative [`Self::cost`]). Host
    /// backends charge zero cycles/energy; the cycle backend reports
    /// the exact simulated cycles and nanojoules for these rows.
    ///
    /// # Errors
    ///
    /// [`VibnnError::ShapeMismatch`] if `x` is not
    /// [`Vibnn::input_dim`] columns wide.
    pub fn submit_batch_costed(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<ServeResult>, BackendCost), VibnnError> {
        let (outcomes, cost) = self.submit_batch_outcomes_costed(x)?;
        let mut out = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            out.push(outcome.into_result()?);
        }
        Ok((out, cost))
    }

    /// The outcome-level batch API: like
    /// [`Self::submit_batch_costed`], but an abstaining row comes back
    /// as its own [`RowOutcome::Abstained`] instead of failing the
    /// whole call — the entry point for callers (the cluster router)
    /// that must attribute abstentions per request.
    ///
    /// # Errors
    ///
    /// [`VibnnError::ShapeMismatch`] if `x` is not
    /// [`Vibnn::input_dim`] columns wide.
    pub fn submit_batch_outcomes_costed(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<RowOutcome>, BackendCost), VibnnError> {
        if x.rows() > 0 && x.cols() != self.vibnn.input_dim() {
            return Err(VibnnError::ShapeMismatch {
                context: "request width",
                expected: self.vibnn.input_dim(),
                got: x.cols(),
            });
        }
        let mut out = Vec::with_capacity(x.rows());
        let mut cost = BackendCost::default();
        let mut start = 0;
        while start < x.rows() {
            let end = (start + self.cfg.max_batch).min(x.rows());
            let chunk = x.rows_slice(start, end);
            cost.accumulate(self.run_microbatch(&chunk, start as u64, &mut out));
            start = end;
        }
        Ok((out, cost))
    }

    /// Runs one micro-batch (rows already validated) through the
    /// selected backend under the engine's sampling policy and appends
    /// one outcome per row, ids starting at `id_base`. Returns the
    /// batch's cost (already accumulated into the engine total).
    fn run_microbatch(&self, chunk: &Matrix, id_base: u64, out: &mut Vec<RowOutcome>) -> BackendCost {
        let mut slot = self.lock_backend();
        let (rows, cost) = slot.exec.serve_adaptive(
            chunk,
            self.policy_exec.as_ref(),
            self.vibnn.mc_samples(),
            &self.eps,
            self.cfg.workers,
        );
        slot.cost.accumulate(cost);
        drop(slot);
        for (r, mut row) in rows.into_iter().enumerate() {
            row.set_id(id_base + r as u64);
            out.push(row);
        }
        cost
    }

    /// Moves the engine onto a background dispatcher thread and returns a
    /// submission handle with backpressure: requests queue up to
    /// [`ServeConfig::max_queue`] deep, the dispatcher drains up to
    /// [`ServeConfig::max_batch`] of them per micro-batch, and results are
    /// collected by request id.
    pub fn spawn(self) -> ServeHandle
    where
        S: Send + 'static,
    {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                results: HashMap::new(),
                next_id: 0,
                stop: false,
                worker_alive: true,
            }),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
            max_queue: self.cfg.max_queue,
            input_dim: self.vibnn.input_dim(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            // Liveness guard: whether the loop returns normally or
            // unwinds (a panic anywhere in the compute path), waiting
            // callers must observe `worker_alive == false` instead of
            // blocking forever.
            let _alive = AliveGuard(&worker_shared);
            dispatcher_loop(&self, &worker_shared);
        });
        ServeHandle {
            shared,
            worker: Some(worker),
        }
    }
}

/// Clears `worker_alive` and wakes every waiter when the dispatcher
/// thread exits — by any path, including unwinding.
struct AliveGuard<'a>(&'a Shared);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.worker_alive = false;
        drop(st);
        self.0.result_ready.notify_all();
    }
}

struct QueueState {
    queue: VecDeque<(u64, Vec<f32>)>,
    results: HashMap<u64, RowOutcome>,
    next_id: u64,
    stop: bool,
    worker_alive: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
    result_ready: Condvar,
    max_queue: usize,
    input_dim: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The backpressure gate: enqueues one request or reports why not.
    /// Width is validated here, before the row can reach the dispatcher.
    fn try_submit(&self, features: Vec<f32>) -> Result<u64, VibnnError> {
        if features.len() != self.input_dim {
            return Err(VibnnError::ShapeMismatch {
                context: "request width",
                expected: self.input_dim,
                got: features.len(),
            });
        }
        let mut st = self.lock();
        if st.stop || !st.worker_alive {
            return Err(VibnnError::EngineStopped);
        }
        if st.queue.len() >= self.max_queue {
            return Err(VibnnError::QueueFull {
                depth: st.queue.len(),
                capacity: self.max_queue,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back((id, features));
        drop(st);
        self.work_ready.notify_one();
        Ok(id)
    }
}

/// The dispatcher: drain → micro-batch → publish, until asked to stop
/// (and then finish whatever is still queued).
fn dispatcher_loop<S: StreamFork + Sync>(engine: &ServeEngine<S>, shared: &Shared) {
    let input_dim = engine.vibnn.input_dim();
    loop {
        let batch: Vec<(u64, Vec<f32>)> = {
            let mut st = shared.lock();
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.stop {
                    // `AliveGuard` clears `worker_alive` and wakes the
                    // waiters on the way out.
                    return;
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let n = st.queue.len().min(engine.cfg.max_batch);
            st.queue.drain(..n).collect()
        };
        let mut x = Matrix::zeros(batch.len(), input_dim);
        for (r, (_, features)) in batch.iter().enumerate() {
            x.row_mut(r).copy_from_slice(features);
        }
        let mut fresh = Vec::with_capacity(batch.len());
        engine.run_microbatch(&x, 0, &mut fresh);
        let mut st = shared.lock();
        for ((id, _), mut outcome) in batch.into_iter().zip(fresh) {
            outcome.set_id(id);
            st.results.insert(id, outcome);
        }
        drop(st);
        shared.result_ready.notify_all();
    }
}

/// Handle to a spawned [`ServeEngine`]: submit single-row requests, then
/// collect results by id. Dropping the handle shuts the dispatcher down
/// (draining the queue first).
#[derive(Debug)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("max_queue", &self.max_queue)
            .finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Submits one request (a single feature row) and returns its id.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::ShapeMismatch`] — the row is not
    ///   [`Vibnn::input_dim`] values wide (checked before enqueueing, so
    ///   a bad row can never reach the dispatcher).
    /// - [`VibnnError::QueueFull`] — backpressure; retry after results
    ///   drain.
    /// - [`VibnnError::EngineStopped`] — the dispatcher has shut down.
    pub fn submit(&self, features: Vec<f32>) -> Result<u64, VibnnError> {
        self.shared.try_submit(features)
    }

    /// Takes a finished result without blocking, if it is ready. An
    /// abstained request surfaces as `Some(Err(VibnnError::Abstained))`.
    pub fn try_take(&self, id: u64) -> Option<Result<ServeResult, VibnnError>> {
        self.shared
            .lock()
            .results
            .remove(&id)
            .map(RowOutcome::into_result)
    }

    /// Blocks until the result for `id` is ready and takes it.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::UnknownRequest`] — `id` was never issued (waiting
    ///   would block forever).
    /// - [`VibnnError::EngineStopped`] — the dispatcher shut down before
    ///   producing the result.
    /// - [`VibnnError::Abstained`] — a risk-tiered sampling policy
    ///   declined this request at its full sample budget.
    pub fn wait(&self, id: u64) -> Result<ServeResult, VibnnError> {
        let mut st = self.shared.lock();
        if id >= st.next_id {
            return Err(VibnnError::UnknownRequest(id));
        }
        loop {
            if let Some(outcome) = st.results.remove(&id) {
                return outcome.into_result();
            }
            if !st.worker_alive {
                return Err(VibnnError::EngineStopped);
            }
            st = self
                .shared
                .result_ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Requests currently queued (not yet dispatched).
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Stops the dispatcher after it drains the queue, joins it, and
    /// returns every unclaimed *served* result sorted by request id
    /// (abstained requests, claimable per id via
    /// [`Self::try_take`]/[`Self::wait`] while the handle lives, are
    /// dropped here — they carry no prediction).
    pub fn shutdown(mut self) -> Vec<ServeResult> {
        self.stop_and_join();
        let mut leftover: Vec<ServeResult> = self
            .shared
            .lock()
            .results
            .drain()
            .filter_map(|(_, outcome)| match outcome {
                RowOutcome::Served(r) => Some(r),
                RowOutcome::Abstained { .. } => None,
            })
            .collect();
        leftover.sort_by_key(|r| r.id);
        leftover
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.shared.lock();
            st.stop = true;
        }
        self.shared.work_ready.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VibnnBuilder;
    use vibnn_bnn::{Bnn, BnnConfig};

    fn tiny_vibnn() -> Vibnn {
        let bnn = Bnn::new(BnnConfig::new(&[3, 6, 2]).with_sigma_init(0.1), 11);
        VibnnBuilder::new(bnn.params())
            .mc_samples(3)
            .calibration(Matrix::zeros(2, 3))
            .build()
            .unwrap()
    }

    #[test]
    fn zero_sized_configs_are_rejected() {
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeEngine::new(tiny_vibnn(), cfg),
            Err(VibnnError::BadServeConfig(_))
        ));
        let cfg = ServeConfig {
            max_queue: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeEngine::new(tiny_vibnn(), cfg),
            Err(VibnnError::BadServeConfig(_))
        ));
    }

    #[test]
    fn queue_backpressure_is_deterministic() {
        // Exercise the capacity gate directly — no dispatcher racing to
        // drain the queue.
        let shared = Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                results: HashMap::new(),
                next_id: 0,
                stop: false,
                worker_alive: true,
            }),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
            max_queue: 2,
            input_dim: 3,
        };
        // Width is validated at the gate, before capacity.
        assert!(matches!(
            shared.try_submit(vec![0.0; 2]),
            Err(VibnnError::ShapeMismatch { expected: 3, got: 2, .. })
        ));
        assert_eq!(shared.try_submit(vec![0.0; 3]).unwrap(), 0);
        assert_eq!(shared.try_submit(vec![0.0; 3]).unwrap(), 1);
        assert!(matches!(
            shared.try_submit(vec![0.0; 3]),
            Err(VibnnError::QueueFull {
                depth: 2,
                capacity: 2
            })
        ));
        // Draining one slot re-opens the gate; ids keep increasing.
        shared.lock().queue.pop_front();
        assert_eq!(shared.try_submit(vec![0.0; 3]).unwrap(), 2);
        // A stopped engine refuses instead of queueing.
        shared.lock().stop = true;
        assert!(matches!(
            shared.try_submit(vec![0.0; 3]),
            Err(VibnnError::EngineStopped)
        ));
    }

    #[test]
    fn submit_batch_rejects_bad_width() {
        let engine = ServeEngine::new(tiny_vibnn(), ServeConfig::default()).unwrap();
        assert!(matches!(
            engine.submit_batch(&Matrix::zeros(2, 5)),
            Err(VibnnError::ShapeMismatch { .. })
        ));
        assert!(engine.submit_batch(&Matrix::zeros(0, 5)).unwrap().is_empty());
    }

    #[test]
    fn uncertainty_fields_are_sane() {
        let engine = ServeEngine::new(tiny_vibnn(), ServeConfig::default()).unwrap();
        let results = engine.submit_batch(&Matrix::zeros(3, 3)).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.proba.len(), 2);
            assert!(r.argmax < 2);
            assert!((0.0..=2.0f64.ln() + 1e-9).contains(&r.entropy), "{}", r.entropy);
            assert!(r.mc_std >= 0.0);
        }
    }

    #[test]
    fn spawned_handle_serves_and_shuts_down() {
        let engine = ServeEngine::new(tiny_vibnn(), ServeConfig::default()).unwrap();
        let direct = engine.submit_batch(&Matrix::zeros(1, 3)).unwrap();
        let handle = ServeEngine::new(tiny_vibnn(), ServeConfig::default())
            .unwrap()
            .spawn();
        let id = handle.submit(vec![0.0; 3]).unwrap();
        let got = handle.wait(id).unwrap();
        assert_eq!(got.proba, direct[0].proba);
        // Mis-sized rows are rejected at the gate, never dispatched.
        assert!(matches!(
            handle.submit(vec![0.0; 7]),
            Err(VibnnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            handle.wait(999),
            Err(VibnnError::UnknownRequest(999))
        ));
        // Unclaimed results come back from shutdown.
        let id2 = handle.submit(vec![0.5; 3]).unwrap();
        let leftover = handle.shutdown();
        assert!(leftover.iter().any(|r| r.id == id2));
    }
}
