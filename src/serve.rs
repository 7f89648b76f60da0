//! The serving engine: batches of inference requests on one deployed
//! accelerator, split into micro-batches.
//!
//! VIBNN's deployment story (paper Section 1) is an accelerator serving
//! large volumes of small Bayesian-inference queries. [`ServeEngine`]
//! is the synchronous core of that: [`ServeEngine::submit_batch`] takes
//! feature rows, splits them into micro-batches of at most
//! [`ServeConfig::max_batch`] rows, runs each through the selected
//! backend's sampling loop ([`InferenceBackend::serve_adaptive`]) under
//! the engine's sampling policy, and returns per-request probabilities
//! plus predictive-uncertainty estimates. Under the default
//! [`PolicySpec::ExactN`] that loop draws every configured sample, and
//! the samples of a micro-batch run in parallel on
//! [`ServeConfig::workers`] threads.
//!
//! The engine owns no queue. Single-row requests with backpressure,
//! lanes, deadlines and hot swap go through a
//! [`ClusterEngine`](crate::cluster::ClusterEngine), whose replicas each
//! drive one `ServeEngine`; `replicas: 1` is the one-dispatcher case.
//!
//! # Determinism
//!
//! The engine owns its ε stream and forks it per Monte Carlo sample:
//! sample `s` of **every** micro-batch draws from `eps.fork(s)` — the
//! identical substream assignment `Vibnn::predict_proba_parallel` uses.
//! Because the fixed-point datapath processes rows independently, a
//! request's result depends only on its feature row and the engine's ε
//! seed, **never** on batch composition or worker count (nor, behind a
//! cluster, on arrival order or queue state). Stacking the results of N
//! single-row requests reproduces the one-shot batched
//! `predict_proba_parallel` call bit for bit — the serve-determinism
//! integration suite pins this at 1/2/4 workers for permuted arrival
//! orders.

use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// Unused: a [`ServeEngine`] owns no queue, so it neither reads nor
    /// validates this (default 1024). The queued front end's capacity is
    /// [`ClusterConfig::max_queue`](crate::cluster::ClusterConfig::max_queue).
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
    /// Request id: the cluster request id for a request served through
    /// [`ClusterEngine::submit`](crate::cluster::ClusterEngine::submit);
    /// for the synchronous [`ServeEngine::submit_batch`], the row index
    /// within the call.
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
/// Serve with [`submit_batch`](Self::submit_batch). For a thread-backed
/// queue with backpressure, put it behind a
/// [`ClusterEngine`](crate::cluster::ClusterEngine).
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
    /// [`VibnnError::BadServeConfig`] if `max_batch` is 0 or the policy
    /// fails [`PolicySpec::validate`].
    pub fn new(vibnn: Vibnn, cfg: ServeConfig) -> Result<Self, VibnnError> {
        Self::with_eps(vibnn, cfg, ZigguratGrng::new(0x5EED))
    }
}

impl<S: StreamFork + Sync> ServeEngine<S> {
    /// Wraps a deployment with an explicit ε source.
    ///
    /// # Errors
    ///
    /// [`VibnnError::BadServeConfig`] if `max_batch` is 0 or the policy
    /// fails [`PolicySpec::validate`].
    pub fn with_eps(vibnn: Vibnn, cfg: ServeConfig, eps: S) -> Result<Self, VibnnError> {
        if cfg.max_batch == 0 {
            return Err(VibnnError::BadServeConfig("max_batch must be positive"));
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
    /// the modeled accelerator's cycles and nanojoules for these rows.
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
        for start in (0..x.rows()).step_by(self.cfg.max_batch) {
            let chunk = x.rows_slice(start, (start + self.cfg.max_batch).min(x.rows()));
            // One backend lock per micro-batch, so concurrent callers
            // interleave at micro-batch granularity.
            let mut slot = self.lock_backend();
            let (rows, batch_cost) = slot.exec.serve_adaptive(
                &chunk,
                self.policy_exec.as_ref(),
                self.vibnn.mc_samples(),
                &self.eps,
                self.cfg.workers,
            );
            slot.cost.accumulate(batch_cost);
            drop(slot);
            cost.accumulate(batch_cost);
            for (r, mut row) in rows.into_iter().enumerate() {
                row.set_id((start + r) as u64);
                out.push(row);
            }
        }
        Ok((out, cost))
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
}
