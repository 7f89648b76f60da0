//! Pluggable inference backends: one serving contract, three datapaths.
//!
//! The paper's deployment story is an accelerator serving Bayesian
//! inference, yet a serving stack usually grows around whichever
//! datapath existed first. This module makes the datapath a *plug*:
//! [`InferenceBackend`] is the micro-batch contract the serving engine
//! dispatches through, and three implementations cover the repo's
//! datapaths end to end:
//!
//! - [`SoftwareBackend`] — the parallel float path (weights sampled as
//!   `µ + σ·ε` in f32, dense forward, softmax), the precision reference.
//! - [`QuantizedBackend`] — the quantized-host path the engine has
//!   always used (integer weight sampling and forward, the members of
//!   [`QuantizedBnn::predict_proba_mc_members_parallel`]). This is the
//!   **default**; its results are bit-identical to the pre-backend
//!   serving engine.
//! - [`CycleBackend`] — hardware in the loop: the quantized datapath's
//!   bits, with each batch charged the modeled accelerator's cycles and
//!   the energy (nJ) they dissipate under the [`vibnn_hw::power`] system
//!   model.
//!
//! # Determinism
//!
//! All three backends fork the engine's ε source per Monte Carlo
//! sample (`eps.fork(s)`), never consume a shared stream, and process
//! rows independently — so a request's answer depends only on its
//! feature row, the deployment, the backend kind, and the ε seed;
//! never on batch composition, arrival order, or worker count. The
//! cluster router exploits this: spill is restricted to replicas with
//! the same checkpoint fingerprint *and* the same backend kind, so
//! rerouting can never change a result.
//!
//! # One sampling loop
//!
//! A backend implements one datapath method,
//! [`InferenceBackend::serve_adaptive`]: draw members sample by sample,
//! stop each row when its [`SamplingPolicy`] says so, and finish the row
//! through the one finalizer that computes argmax, entropy and `mc_std`.
//! A fixed sample count is that loop under [`ExactN`]
//! ([`InferenceBackend::serve_microbatch`]). All three backends share one
//! host driver that computes the samples every row is guaranteed to draw
//! in parallel across `workers`; the cycle backend runs the quantized
//! member through it, so it serves exactly the quantized backend's bits.
//!
//! # Cost accounting
//!
//! Every micro-batch returns a [`BackendCost`]. The software and
//! quantized hosts charge zero cycles/energy (they are host code, not
//! modeled hardware); the cycle backend charges
//! [`vibnn_hw::Schedule::cycles_per_sample`] cycles per Monte Carlo sample
//! drawn — the count the ticked [`CycleAccelerator`] reaches, which
//! depends on the layer shapes alone — and the energy those cycles
//! dissipate at the configured clock. Costs accumulate per engine and
//! per cluster replica, surface in `ClusterMetrics`, and travel over the
//! ingest wire.

use vibnn_bnn::{reduce_mean, BnnParams};
use vibnn_grng::{GaussianSource, StreamFork};
use vibnn_hw::{CycleAccelerator, McScratch, QuantizedBnn, QuantizedInput, Schedule};
use vibnn_nn::{relu, softmax_rows, Matrix};

use crate::sampler::{ExactN, RowTracker, SampleDecision, SamplingPolicy};
use crate::serve::ServeResult;
use crate::{Vibnn, VibnnError};

/// Which datapath a serving slot runs inference through.
///
/// The default is [`BackendKind::Quantized`] — the quantized-host path
/// the serving engine has always used — so existing deployments are
/// unchanged unless a backend is selected explicitly (via
/// `VibnnBuilder::backend`, `ServeConfig::backend`, or a cluster's
/// per-replica kinds).
///
/// ```
/// use vibnn::backend::BackendKind;
///
/// assert_eq!(BackendKind::default(), BackendKind::Quantized);
/// // Kinds travel over the ingest wire as the `backend` label of
/// // per-replica metrics.
/// assert_eq!(BackendKind::Cycle.to_string(), "cycle");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Float-precision software path (µ + σ·ε in f32, dense forward).
    Software,
    /// Quantized host path — the historical serving datapath.
    #[default]
    Quantized,
    /// The quantized datapath priced as the modeled accelerator:
    /// `Quantized`'s bits with cycle/energy accounting.
    Cycle,
}

impl BackendKind {
    /// Instantiates this backend for a deployment. The returned object
    /// is what a [`crate::serve::ServeEngine`] dispatches micro-batches
    /// through.
    pub fn instantiate<S: StreamFork + Sync>(
        self,
        vibnn: &Vibnn,
    ) -> Box<dyn InferenceBackend<S>> {
        match self {
            BackendKind::Software => Box::new(SoftwareBackend::new(vibnn.params().clone())),
            BackendKind::Quantized => Box::new(QuantizedBackend::new(vibnn.network().clone())),
            BackendKind::Cycle => Box::new(CycleBackend::new(CycleAccelerator::new(
                vibnn.config().clone(),
                vibnn.network().clone(),
            ))),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Software => write!(f, "software"),
            BackendKind::Quantized => write!(f, "quantized"),
            BackendKind::Cycle => write!(f, "cycle"),
        }
    }
}

/// Hardware cost charged for served work: simulated clock cycles, the
/// energy those cycles dissipate (nanojoules, from the
/// [`vibnn_hw::power`] system model), and the Monte Carlo samples
/// drawn. Host backends (software/quantized) charge zero cycles and
/// energy; only the cycle backend meters modeled hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendCost {
    /// Simulated accelerator clock cycles.
    pub cycles: u64,
    /// Energy in nanojoules for those cycles at the configured clock.
    pub energy_nj: f64,
    /// Monte Carlo samples executed (rows × MC samples per request).
    pub samples: u64,
}

impl BackendCost {
    /// Folds another cost into this one (cumulative accounting).
    pub fn accumulate(&mut self, other: BackendCost) {
        self.cycles += other.cycles;
        self.energy_nj += other.energy_nj;
        self.samples += other.samples;
    }
}

/// One row's outcome under an adaptive sampling policy: an answer, or
/// a typed abstention (a risk-tiered policy declining to predict).
#[derive(Debug, Clone, PartialEq)]
pub enum RowOutcome {
    /// The request was answered.
    Served(ServeResult),
    /// A risk-tiered policy declined to answer after exhausting the
    /// sample budget on a still-uncertain request.
    Abstained {
        /// Request id (row index within the chunk; engines rewrite it).
        id: u64,
        /// Monte Carlo samples drawn before abstaining.
        samples_used: u32,
        /// Final normalized predictive entropy, in thousandths of
        /// `ln(classes)`.
        entropy_milli: u32,
    },
}

impl RowOutcome {
    /// Rewrites the request id (engines map chunk-relative row indices
    /// to global ids).
    pub fn set_id(&mut self, id: u64) {
        match self {
            RowOutcome::Served(r) => r.id = id,
            RowOutcome::Abstained { id: slot, .. } => *slot = id,
        }
    }

    /// The served result, or the abstention as its typed error.
    pub fn into_result(self) -> Result<ServeResult, VibnnError> {
        match self {
            RowOutcome::Served(r) => Ok(r),
            RowOutcome::Abstained {
                samples_used,
                entropy_milli,
                ..
            } => Err(VibnnError::Abstained {
                samples_used,
                entropy_milli,
            }),
        }
    }
}

/// The micro-batch contract a serving slot dispatches through: run one
/// validated chunk of feature rows through Monte Carlo draws under a
/// sampling policy and return one [`RowOutcome`] per row (ids = row
/// index within the chunk; the engine rewrites them) plus the batch's
/// [`BackendCost`]. [`serve_adaptive`](Self::serve_adaptive) is the one
/// datapath method a backend implements;
/// [`serve_microbatch`](Self::serve_microbatch) is its fixed-count form.
///
/// Implementations must keep the serving determinism contract: sample
/// `s` draws from `eps.fork(s)`, rows are processed independently, and
/// `workers` never affects results.
///
/// ```
/// use vibnn::backend::{BackendKind, InferenceBackend};
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::grng::ZigguratGrng;
/// use vibnn::nn::Matrix;
/// use vibnn::VibnnBuilder;
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 2]), 7);
/// let vibnn = VibnnBuilder::new(bnn.params())
///     .mc_samples(3)
///     .calibration(Matrix::zeros(2, 4))
///     .build()?;
/// let mut backend = BackendKind::Cycle.instantiate::<ZigguratGrng>(&vibnn);
/// let eps = ZigguratGrng::new(0x5EED);
/// let (results, cost) = backend.serve_microbatch(&Matrix::zeros(2, 4), 3, &eps, 1);
/// assert_eq!(results.len(), 2);
/// assert!(cost.cycles > 0 && cost.energy_nj > 0.0);
/// assert_eq!(cost.samples, 2 * 3);
/// # Ok::<(), vibnn::VibnnError>(())
/// ```
pub trait InferenceBackend<S: StreamFork + Sync>: Send {
    /// Which datapath this backend runs.
    fn kind(&self) -> BackendKind;

    /// Serves one micro-batch: each row draws Monte Carlo members in
    /// sample order (sample `s` from `eps.fork(s)`), `policy` sees every
    /// member, and the row stops — or abstains — as soon as the policy
    /// decides. `max_samples` is the budget a row can never exceed.
    ///
    /// The determinism contract extends to stopping: a row's member
    /// sequence and its policy observations are pure functions of that
    /// row's features and the ε substreams, so `samples_used` and the
    /// served bits are independent of batch composition, arrival order,
    /// and `workers`. A row that stops after `n` samples returns
    /// exactly what [`Self::serve_microbatch`] returns for that row with
    /// `samples = n`.
    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost);

    /// Serves one micro-batch at a fixed `samples` draws per row:
    /// [`Self::serve_adaptive`] under [`ExactN`], which draws the whole
    /// budget and never abstains.
    fn serve_microbatch(
        &mut self,
        chunk: &Matrix,
        samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<ServeResult>, BackendCost) {
        let (outcomes, cost) = self.serve_adaptive(chunk, &ExactN, samples, eps, workers);
        let results = outcomes
            .into_iter()
            .map(|outcome| match outcome {
                RowOutcome::Served(result) => result,
                RowOutcome::Abstained { .. } => unreachable!("ExactN never abstains"),
            })
            .collect();
        (results, cost)
    }
}

/// One row's progress through [`drive_host_rows`]: its decision
/// tracker, its Monte Carlo members so far (each a `1 × classes`
/// matrix), and the policy's latest verdict.
struct HostRow {
    tracker: RowTracker,
    members: Vec<Matrix>,
    verdict: SampleDecision,
}

impl HostRow {
    fn running(&self) -> bool {
        matches!(
            self.verdict,
            SampleDecision::Continue | SampleDecision::Escalate
        )
    }

    fn observe(&mut self, policy: &dyn SamplingPolicy, probs: &[f32]) {
        self.members.push(Matrix::from_vec(1, probs.len(), probs.to_vec()));
        self.verdict = policy.decide(&self.tracker.observe_f32(probs));
    }
}

/// A micro-batch as a backend's member reads it: float rows, or rows
/// quantized once per micro-batch ([`QuantizedBnn::quantize_input`]).
trait Batch: Default + Sync {
    fn rows(&self) -> usize;
    /// Overwrites `out` with the rows `indices`, in that order.
    fn select_rows_into(&self, indices: &[usize], out: &mut Self);
}

impl Batch for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn select_rows_into(&self, indices: &[usize], out: &mut Self) {
        Matrix::select_rows_into(self, indices, out);
    }
}

impl Batch for QuantizedInput {
    fn rows(&self) -> usize {
        QuantizedInput::rows(self)
    }

    fn select_rows_into(&self, indices: &[usize], out: &mut Self) {
        QuantizedInput::select_rows_into(self, indices, out);
    }
}

/// The sampling loop every backend runs.
/// `member(x, src, scratch)` computes one Monte Carlo member — softmax
/// probabilities for the rows of `x` — from `src = eps.fork(s)`.
///
/// The first [`PolicySpec::guaranteed_samples`] members, which every row
/// draws, are computed for the whole chunk with the samples spread over
/// `workers` threads ([`vibnn_bnn::parallel_fork_map`], one `W` scratch
/// per worker); under [`ExactN`] that is the whole budget. After that
/// the loop draws one sample at a time for the rows the policy keeps
/// running, so a stopped row costs nothing more. Each row's mean is
/// [`reduce_mean`] over its own members, so stopping one row never
/// perturbs another, and a row stopped at `n` samples gets the bits of a
/// fixed `n`-sample run.
///
/// [`PolicySpec::guaranteed_samples`]: crate::sampler::PolicySpec::guaranteed_samples
fn drive_host_rows<S, W, X, F>(
    chunk: &X,
    policy: &dyn SamplingPolicy,
    max_samples: usize,
    eps: &S,
    workers: usize,
    member: F,
) -> (Vec<RowOutcome>, BackendCost)
where
    S: StreamFork + Sync,
    W: Default,
    X: Batch,
    F: Fn(&X, &mut S, &mut W) -> Matrix + Sync,
{
    assert!(max_samples > 0, "need at least one Monte Carlo sample");
    let warm = policy.spec().guaranteed_samples(max_samples);
    let warm_members = vibnn_bnn::parallel_fork_map(warm, workers, eps, |_, src, w: &mut W| {
        member(chunk, src, w)
    });
    let classes = warm_members[0].cols();
    let mut rows: Vec<HostRow> = (0..chunk.rows())
        .map(|_| HostRow {
            tracker: RowTracker::new(classes, max_samples),
            members: Vec::with_capacity(max_samples),
            verdict: SampleDecision::Continue,
        })
        .collect();
    for m in &warm_members {
        for (r, row) in rows.iter_mut().enumerate() {
            if row.running() {
                row.observe(policy, m.row(r));
            }
        }
    }
    let mut active: Vec<usize> = (0..rows.len()).filter(|&r| rows[r].running()).collect();
    let mut scratch = W::default();
    let mut sub = X::default();
    for s in warm..max_samples {
        if active.is_empty() {
            break;
        }
        chunk.select_rows_into(&active, &mut sub);
        let m = member(&sub, &mut eps.fork(s as u64), &mut scratch);
        for (i, &r) in active.iter().enumerate() {
            rows[r].observe(policy, m.row(i));
        }
        active.retain(|&r| rows[r].running());
    }
    let cost = BackendCost {
        samples: rows.iter().map(|row| row.members.len() as u64).sum(),
        ..BackendCost::default()
    };
    let out = rows
        .iter()
        .enumerate()
        .map(|(r, row)| {
            let n = row.members.len();
            if row.verdict == SampleDecision::Abstain {
                return RowOutcome::Abstained {
                    id: r as u64,
                    samples_used: n as u32,
                    entropy_milli: row.tracker.entropy_milli(),
                };
            }
            let proba = reduce_mean(&row.members).data().to_vec();
            RowOutcome::Served(finish_row(r as u64, proba, n, |k, c| {
                f64::from(row.members[k].data()[c])
            }))
        })
        .collect();
    (out, cost)
}

/// Builds one row's [`ServeResult`] from its mean probabilities and its
/// `samples` Monte Carlo members (`member(k, c)` is member `k`'s
/// probability of class `c`): the argmax (lowest index wins ties), the
/// predictive entropy in nats, and `mc_std`, the mean over classes of
/// the members' standard deviation around the mean. Every backend
/// finishes its rows here.
fn finish_row(
    id: u64,
    proba: Vec<f32>,
    samples: usize,
    member: impl Fn(usize, usize) -> f64,
) -> ServeResult {
    let mut argmax = 0;
    for (c, &p) in proba.iter().enumerate() {
        if p > proba[argmax] {
            argmax = c;
        }
    }
    let entropy = -proba
        .iter()
        .map(|&p| {
            let p = f64::from(p);
            if p > 0.0 {
                p * p.ln()
            } else {
                0.0
            }
        })
        .sum::<f64>();
    let mut std_sum = 0.0f64;
    for (c, &m) in proba.iter().enumerate() {
        let mean_c = f64::from(m);
        let var = (0..samples)
            .map(|k| (member(k, c) - mean_c).powi(2))
            .sum::<f64>()
            / samples as f64;
        std_sum += var.sqrt();
    }
    ServeResult {
        id,
        argmax,
        entropy,
        mc_std: std_sum / proba.len() as f64,
        samples_used: samples as u32,
        proba,
    }
}

/// The quantized-host datapath — the serving engine's default backend.
/// Each micro-batch is quantized once ([`QuantizedBnn::quantize_input`]);
/// each member samples an integer weight set from `eps.fork(s)` and runs
/// the integer forward and softmax ([`QuantizedBnn::sample_member`]) — the
/// members of [`QuantizedBnn::predict_proba_mc_members_parallel`] — and
/// means come from [`reduce_mean`], so results are bit-identical to the
/// pre-backend serving engine.
#[derive(Debug, Clone)]
pub struct QuantizedBackend {
    qbnn: QuantizedBnn,
}

impl QuantizedBackend {
    /// Wraps a deployed quantized network.
    pub fn new(qbnn: QuantizedBnn) -> Self {
        Self { qbnn }
    }
}

impl<S: StreamFork + Sync> InferenceBackend<S> for QuantizedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Quantized
    }

    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost) {
        let qbnn = &self.qbnn;
        drive_host_rows(
            &qbnn.quantize_input(chunk),
            policy,
            max_samples,
            eps,
            workers,
            |x, src, scratch: &mut McScratch| qbnn.sample_member(x, src, scratch),
        )
    }
}

/// The float-precision software datapath: sample `s` forks its own ε
/// substream, draws every layer's weights as `µ + σ·ε` in f32 (weights
/// row-major, then biases — the weight generator's table order), runs
/// the dense forward with ReLU between layers, and softmaxes. Means
/// come from [`reduce_mean`], so results are bit-identical at every
/// worker count and batch composition.
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    params: BnnParams,
}

impl SoftwareBackend {
    /// Wraps the deployment's float parameters.
    pub fn new(params: BnnParams) -> Self {
        Self { params }
    }

    /// One sampled forward pass ending in softmax.
    fn sample_member(
        &self,
        x: &Matrix,
        src: &mut impl GaussianSource,
        eps: &mut Vec<f32>,
    ) -> Matrix {
        let last = self.params.layers() - 1;
        let mut h: Option<Matrix> = None;
        for l in 0..self.params.layers() {
            let mu = &self.params.weight_mu[l];
            let sigma = &self.params.weight_sigma[l];
            let d_out = mu.cols();
            let n_w = mu.rows() * d_out;
            eps.resize(n_w + d_out, 0.0);
            src.fill_f32(eps);
            let mut w = mu.clone();
            for ((wv, &sv), &ev) in w
                .data_mut()
                .iter_mut()
                .zip(sigma.data())
                .zip(eps.iter())
            {
                *wv += sv * ev;
            }
            let bias_eps = &eps[n_w..];
            let input = h.as_ref().unwrap_or(x);
            let mut out = input.matmul(&w);
            let bias_mu = &self.params.bias_mu[l];
            let bias_sigma = &self.params.bias_sigma[l];
            for r in 0..out.rows() {
                for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                    *v += bias_mu[c] + bias_sigma[c] * bias_eps[c];
                }
            }
            if l < last {
                relu(&mut out);
            }
            h = Some(out);
        }
        let mut probs = h.expect("at least one layer");
        softmax_rows(&mut probs);
        probs
    }
}

impl<S: StreamFork + Sync> InferenceBackend<S> for SoftwareBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Software
    }

    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost) {
        let backend = &*self;
        drive_host_rows(
            chunk,
            policy,
            max_samples,
            eps,
            workers,
            |x, src, scratch: &mut Vec<f32>| backend.sample_member(x, src, scratch),
        )
    }
}

/// Hardware in the loop, priced by the modeled accelerator: rows are
/// served on the quantized datapath through the same host driver and
/// member as [`QuantizedBackend`], so a row's bits are exactly
/// `Quantized`'s — which equal the ticked
/// [`CycleAccelerator::infer_forked`] — and `workers` is honoured the
/// same way. Every Monte Carlo sample drawn is charged
/// [`Schedule::cycles_per_sample`] cycles, the count the ticked simulator
/// produces (the schedule depends on the layer shapes alone), plus the
/// energy those cycles dissipate under the [`vibnn_hw::power`] model.
#[derive(Debug, Clone)]
pub struct CycleBackend {
    sim: CycleAccelerator,
    cycles_per_sample: u64,
}

impl CycleBackend {
    /// Wraps an accelerator model: its network serves, its configuration
    /// prices the cycles and the energy.
    pub fn new(sim: CycleAccelerator) -> Self {
        let cycles_per_sample =
            Schedule::new(sim.config(), &sim.network().layer_sizes()).cycles_per_sample();
        Self {
            sim,
            cycles_per_sample,
        }
    }
}

impl<S: StreamFork + Sync> InferenceBackend<S> for CycleBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cycle
    }

    fn serve_adaptive(
        &mut self,
        chunk: &Matrix,
        policy: &dyn SamplingPolicy,
        max_samples: usize,
        eps: &S,
        workers: usize,
    ) -> (Vec<RowOutcome>, BackendCost) {
        let qbnn = self.sim.network();
        let (out, mut cost) = drive_host_rows(
            &qbnn.quantize_input(chunk),
            policy,
            max_samples,
            eps,
            workers,
            |x, src, scratch: &mut McScratch| qbnn.sample_member(x, src, scratch),
        );
        cost.cycles = cost.samples * self.cycles_per_sample;
        cost.energy_nj = self.sim.energy_nj(cost.cycles);
        (out, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::PolicySpec;
    use crate::VibnnBuilder;
    use vibnn_bnn::{Bnn, BnnConfig};
    use vibnn_grng::ZigguratGrng;

    const ALL_KINDS: [BackendKind; 3] = [
        BackendKind::Software,
        BackendKind::Quantized,
        BackendKind::Cycle,
    ];

    fn tiny_vibnn() -> Vibnn {
        let bnn = Bnn::new(BnnConfig::new(&[3, 6, 2]).with_sigma_init(0.1), 11);
        VibnnBuilder::new(bnn.params())
            .mc_samples(3)
            .calibration(Matrix::zeros(2, 3))
            .build()
            .unwrap()
    }

    fn rows() -> Matrix {
        let mut x = Matrix::zeros(4, 3);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.31).sin();
        }
        x
    }

    #[test]
    fn kinds_have_stable_labels_and_default_is_quantized() {
        assert_eq!(BackendKind::default(), BackendKind::Quantized);
        let labels = [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ]
        .map(|kind| kind.to_string());
        assert_eq!(labels, ["software", "quantized", "cycle"]);
    }

    #[test]
    fn every_backend_is_worker_count_invariant() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0xABCD);
        // The warm-up members run sample-parallel, so an adaptive row's
        // outcome, samples_used and abstention must not see the workers.
        let policies = [
            PolicySpec::ExactN,
            PolicySpec::EarlyExit { k: 1, min_samples: 2 },
            PolicySpec::RiskTiered {
                k: 1,
                min_samples: 2,
                escalate_milli: 900,
                abstain: true,
            },
        ];
        for kind in ALL_KINDS {
            for spec in policies {
                let policy = spec.instantiate();
                let serve = |workers| {
                    kind.instantiate::<ZigguratGrng>(&vibnn).serve_adaptive(
                        &x,
                        policy.as_ref(),
                        6,
                        &eps,
                        workers,
                    )
                };
                let (base, base_cost) = serve(1);
                if matches!(spec, PolicySpec::RiskTiered { .. }) {
                    // Both driver phases must run, the second on a subset
                    // of the rows: some rows are served after the warm-up
                    // but before the budget, some abstain at the budget.
                    assert!(
                        base.iter()
                            .any(|o| matches!(o, RowOutcome::Served(r) if r.samples_used < 6)),
                        "{kind}: no row was served early: {base:?}"
                    );
                    assert!(
                        base.iter()
                            .any(|o| matches!(o, RowOutcome::Abstained { .. })),
                        "{kind}: no row abstained: {base:?}"
                    );
                }
                for workers in [2usize, 4] {
                    let (got, cost) = serve(workers);
                    assert_eq!(got, base, "{kind} {spec} diverged at {workers} workers");
                    assert_eq!(cost, base_cost, "{kind} {spec} cost at {workers} workers");
                }
            }
            let mut reference = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (base, _) = reference.serve_microbatch(&x, 3, &eps, 1);
            for workers in [2usize, 4] {
                let mut b = kind.instantiate::<ZigguratGrng>(&vibnn);
                let (got, _) = b.serve_microbatch(&x, 3, &eps, workers);
                assert_eq!(got, base, "{kind} diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn every_backend_is_batch_composition_invariant() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x1234);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut whole = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (base, _) = whole.serve_microbatch(&x, 3, &eps, 1);
            let mut split = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (head, _) = split.serve_microbatch(&x.rows_slice(0, 2), 3, &eps, 1);
            let (tail, _) = split.serve_microbatch(&x.rows_slice(2, 4), 3, &eps, 1);
            let stitched: Vec<&ServeResult> = head.iter().chain(&tail).collect();
            for (a, g) in base.iter().zip(stitched) {
                assert_eq!(a.proba, g.proba, "{kind} depends on batch composition");
            }
        }
    }

    #[test]
    fn only_the_cycle_backend_charges_hardware_cost() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x77);
        for (kind, metered) in [
            (BackendKind::Software, false),
            (BackendKind::Quantized, false),
            (BackendKind::Cycle, true),
        ] {
            let mut b = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (_, cost) = b.serve_microbatch(&x, 3, &eps, 1);
            assert_eq!(cost.samples, (x.rows() * 3) as u64, "{kind}");
            assert_eq!(cost.cycles > 0, metered, "{kind} cycles");
            assert_eq!(cost.energy_nj > 0.0, metered, "{kind} energy");
        }
    }

    /// Per row: the mean probabilities and the Monte Carlo members of a
    /// `samples`-sample run, computed outside the serving driver.
    fn reference_rows(
        kind: BackendKind,
        vibnn: &Vibnn,
        x: &Matrix,
        samples: usize,
        eps: &ZigguratGrng,
    ) -> Vec<(Vec<f32>, Vec<Vec<f64>>)> {
        let host = |mean: Matrix, members: Vec<Matrix>| -> Vec<(Vec<f32>, Vec<Vec<f64>>)> {
            (0..x.rows())
                .map(|r| {
                    let widen = |m: &Matrix| m.row(r).iter().map(|&p| f64::from(p)).collect();
                    (mean.row(r).to_vec(), members.iter().map(widen).collect())
                })
                .collect()
        };
        match kind {
            BackendKind::Quantized => {
                let q = vibnn.network();
                host(
                    q.predict_proba_mc_parallel(x, samples, eps, 1),
                    q.predict_proba_mc_members_parallel(x, samples, eps, 1),
                )
            }
            BackendKind::Software => {
                let backend = SoftwareBackend::new(vibnn.params().clone());
                let mut scratch = Vec::new();
                let members: Vec<Matrix> = (0..samples)
                    .map(|s| backend.sample_member(x, &mut eps.fork(s as u64), &mut scratch))
                    .collect();
                host(reduce_mean(&members), members)
            }
            BackendKind::Cycle => {
                let mut cfg = vibnn.config().clone();
                cfg.mc_samples = samples;
                let mut sim = CycleAccelerator::new(cfg, vibnn.network().clone());
                (0..x.rows())
                    .map(|r| {
                        let (proba, members, _) = sim.infer_forked(x.row(r), eps);
                        let widen = |m: &Matrix| m.row(0).iter().map(|&p| f64::from(p)).collect();
                        (proba, members.iter().map(widen).collect())
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn adaptive_exact_n_matches_the_batched_path_bit_for_bit() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x5151);
        let policy = PolicySpec::ExactN.instantiate();
        for kind in ALL_KINDS {
            let mut adaptive = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (got, cost) = adaptive.serve_adaptive(&x, policy.as_ref(), 3, &eps, 1);
            let reference = reference_rows(kind, &vibnn, &x, 3, &eps);
            assert_eq!(got.len(), reference.len());
            for ((mean, members), g) in reference.iter().zip(&got) {
                let RowOutcome::Served(g) = g else {
                    panic!("{kind}: ExactN must never abstain")
                };
                assert_eq!(&g.proba, mean, "{kind} proba diverged");
                // The plain f64 formulas over the reference members.
                let mut entropy = 0.0f64;
                let mut argmax = 0;
                let mut std_sum = 0.0f64;
                for (c, &p) in mean.iter().enumerate() {
                    let p64 = f64::from(p);
                    if p64 > 0.0 {
                        entropy -= p64 * p64.ln();
                    }
                    if p > mean[argmax] {
                        argmax = c;
                    }
                    let mut sq = 0.0f64;
                    for m in members {
                        sq += (m[c] - p64).powi(2);
                    }
                    std_sum += (sq / members.len() as f64).sqrt();
                }
                let mc_std = std_sum / mean.len() as f64;
                assert_eq!(g.argmax, argmax, "{kind} argmax diverged");
                assert_eq!(g.entropy.to_bits(), entropy.to_bits(), "{kind} entropy");
                assert_eq!(g.mc_std.to_bits(), mc_std.to_bits(), "{kind} mc_std");
                assert_eq!(g.samples_used, 3, "{kind} samples_used");
            }
            assert_eq!(cost.samples, (x.rows() * 3) as u64, "{kind} sample count");
        }
    }

    #[test]
    fn cycle_backend_honours_the_requested_sample_count() {
        let vibnn = tiny_vibnn();
        assert_eq!(vibnn.config().mc_samples, 3);
        let x = rows();
        let eps = ZigguratGrng::new(0x3131);
        let mut backend = BackendKind::Cycle.instantiate::<ZigguratGrng>(&vibnn);
        let (served, cost) = backend.serve_microbatch(&x, 2, &eps, 1);
        assert_eq!(cost.samples, (x.rows() * 2) as u64);
        let mut cfg = vibnn.config().clone();
        cfg.mc_samples = 2;
        let mut sim = CycleAccelerator::new(cfg, vibnn.network().clone());
        let mut cycles = 0;
        for (r, res) in served.iter().enumerate() {
            let (probs, members, row_cost) = sim.infer_forked(x.row(r), &eps);
            assert_eq!(res.proba, probs, "row {r} diverged from a 2-sample run");
            assert_eq!(res.samples_used, 2);
            assert_eq!(members.len(), 2);
            cycles += row_cost.cycles;
        }
        assert_eq!(cost.cycles, cycles);
    }

    #[test]
    fn an_early_exit_row_matches_a_smaller_static_budget() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x2323);
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let policy = PolicySpec::EarlyExit { k: 1, min_samples: 1 }
                .instantiate();
            let mut adaptive = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (out, _) = adaptive.serve_adaptive(&x, policy.as_ref(), 3, &eps, 1);
            for (r, o) in out.iter().enumerate() {
                let RowOutcome::Served(res) = o else {
                    panic!("{kind}: EarlyExit must never abstain")
                };
                let n = res.samples_used as usize;
                assert!((1..=3).contains(&n), "{kind} row {r} samples_used {n}");
                // A row stopped at n samples must carry exactly the bits
                // a static-n deployment would have served it.
                let reference: Vec<f32> = if kind == BackendKind::Cycle {
                    let mut cfg = vibnn.config().clone();
                    cfg.mc_samples = n;
                    let mut sim = CycleAccelerator::new(cfg, vibnn.network().clone());
                    sim.infer_forked(x.row(r), &eps).0
                } else {
                    let mut fresh = kind.instantiate::<ZigguratGrng>(&vibnn);
                    let (base, _) = fresh.serve_microbatch(&x.rows_slice(r, r + 1), n, &eps, 1);
                    base[0].proba.clone()
                };
                assert_eq!(res.proba, reference, "{kind} row {r} at {n} samples");
            }
        }
    }

    #[test]
    fn risk_tiered_abstentions_are_typed_at_the_full_budget() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x4242);
        // Threshold 0: every request counts as high-entropy, so every
        // row escalates to the full budget and then abstains.
        let policy = PolicySpec::RiskTiered {
            k: 1,
            min_samples: 1,
            escalate_milli: 0,
            abstain: true,
        }
        .instantiate();
        for kind in [
            BackendKind::Software,
            BackendKind::Quantized,
            BackendKind::Cycle,
        ] {
            let mut adaptive = kind.instantiate::<ZigguratGrng>(&vibnn);
            let (out, cost) = adaptive.serve_adaptive(&x, policy.as_ref(), 3, &eps, 1);
            assert_eq!(cost.samples, (x.rows() * 3) as u64, "{kind} burns the budget");
            for o in &out {
                let RowOutcome::Abstained { samples_used, .. } = o else {
                    panic!("{kind}: expected an abstention, got {o:?}")
                };
                assert_eq!(*samples_used, 3, "{kind} abstains only at the budget");
                assert!(o.clone().into_result().is_err());
            }
        }
    }

    #[test]
    fn cycle_backend_serves_the_quantized_bits_and_charges_the_schedule() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x6161);
        let sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
        let per_sample =
            Schedule::new(sim.config(), &sim.network().layer_sizes()).cycles_per_sample();
        let bits = |o: &RowOutcome| -> Vec<u32> {
            match o {
                RowOutcome::Served(r) => r.proba.iter().map(|p| p.to_bits()).collect(),
                RowOutcome::Abstained { .. } => Vec::new(),
            }
        };
        for spec in [
            PolicySpec::ExactN,
            PolicySpec::EarlyExit { k: 1, min_samples: 1 },
            PolicySpec::RiskTiered {
                k: 1,
                min_samples: 2,
                escalate_milli: 900,
                abstain: true,
            },
        ] {
            let policy = spec.instantiate();
            for workers in [1usize, 2] {
                let serve = |kind: BackendKind| {
                    kind.instantiate::<ZigguratGrng>(&vibnn).serve_adaptive(
                        &x,
                        policy.as_ref(),
                        5,
                        &eps,
                        workers,
                    )
                };
                let (quant, quant_cost) = serve(BackendKind::Quantized);
                let (cycle, cost) = serve(BackendKind::Cycle);
                assert_eq!(cycle, quant, "{spec} at {workers} workers");
                for (r, (c, q)) in cycle.iter().zip(&quant).enumerate() {
                    assert_eq!(bits(c), bits(q), "{spec} row {r} bits at {workers} workers");
                }
                assert_eq!(cost.samples, quant_cost.samples, "{spec}");
                assert_eq!(cost.cycles, cost.samples * per_sample, "{spec}");
                assert_eq!(cost.energy_nj, sim.energy_nj(cost.cycles), "{spec}");
            }
        }
    }

    #[test]
    fn cycle_backend_matches_the_ticked_model() {
        let vibnn = tiny_vibnn();
        let x = rows();
        let eps = ZigguratGrng::new(0x99);
        let mut backend = BackendKind::Cycle.instantiate::<ZigguratGrng>(&vibnn);
        let (served, _) = backend.serve_microbatch(&x, 3, &eps, 1);
        let mut sim = CycleAccelerator::new(vibnn.config().clone(), vibnn.network().clone());
        for (r, res) in served.iter().enumerate() {
            let (probs, _, cost) = sim.infer_forked(x.row(r), &eps);
            assert_eq!(res.proba, probs, "row {r} diverged from the ticked model");
            assert!(cost.cycles > 0);
        }
    }
}
