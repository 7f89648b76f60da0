//! The full Bayesian MLP: stacked [`VarDense`] layers trained by
//! Bayes-by-Backprop, with Monte Carlo inference (paper equations 4–6).

use vibnn_grng::{BnnWallaceGrng, GaussianSource, ParallelRlfGrng, StreamFork, ZigguratGrng};
use vibnn_nn::{
    accuracy, cross_entropy_loss, relu, relu_backward, softmax_rows, Adam, GaussianInit, Matrix,
    Optimizer,
};

use crate::mc::{chunked_fold, TAIL_CHUNK};
use crate::train::{run_step, StepArena, StepPhaseSeconds};
use crate::{parallel_mc_reduce, BnnParams, EpsScratch, GaussianPrior, VarDense};

/// Configuration for [`Bnn`].
///
/// # Example
///
/// ```
/// use vibnn_bnn::BnnConfig;
/// let cfg = BnnConfig::new(&[784, 200, 200, 10]).with_kl_weight(1e-3);
/// assert_eq!(cfg.layer_sizes(), &[784, 200, 200, 10]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BnnConfig {
    sizes: Vec<usize>,
    lr: f32,
    prior: GaussianPrior,
    sigma_init: f32,
    kl_weight: f32,
}

impl BnnConfig {
    /// Creates a configuration from layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes or any size is zero.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        Self {
            sizes: sizes.to_vec(),
            lr: 1e-3,
            prior: GaussianPrior::new(0.5),
            sigma_init: 0.05,
            kl_weight: 1e-4,
        }
    }

    /// The paper's MNIST architecture: 784-200-200-10.
    pub fn paper_mnist() -> Self {
        Self::new(&[784, 200, 200, 10])
    }

    /// Sets the Adam learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn with_lr(mut self, lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
        self
    }

    /// Sets the Gaussian prior standard deviation.
    pub fn with_prior_std(mut self, std: f64) -> Self {
        self.prior = GaussianPrior::new(std);
        self
    }

    /// Sets the initial posterior σ.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn with_sigma_init(mut self, sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma_init must be positive");
        self.sigma_init = sigma;
        self
    }

    /// Sets the per-batch KL weight (Blundell's `1/num_batches`, often
    /// tuned smaller for heavily over-parameterized models).
    ///
    /// # Panics
    ///
    /// Panics if `w < 0`.
    pub fn with_kl_weight(mut self, w: f32) -> Self {
        assert!(w >= 0.0, "kl weight must be non-negative");
        self.kl_weight = w;
        self
    }

    /// Layer sizes.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The prior.
    pub fn prior(&self) -> GaussianPrior {
        self.prior
    }

    /// The configured base learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// The initial posterior σ.
    pub fn sigma_init(&self) -> f32 {
        self.sigma_init
    }

    /// The per-batch KL weight.
    pub fn kl_weight(&self) -> f32 {
        self.kl_weight
    }
}

/// Per-epoch training statistics for a BNN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnnTrainReport {
    /// Mean minibatch total loss (NLL + weighted KL).
    pub loss: f64,
    /// Mean minibatch NLL component.
    pub nll: f64,
    /// Mean minibatch KL component (unweighted).
    pub kl: f64,
    /// Training accuracy (mean-weight network).
    pub accuracy: f64,
}

/// Which generator family supplies training ε (the reparameterization
/// noise of Bayes-by-Backprop).
///
/// The default is the software Ziggurat — the fastest high-quality
/// generator in the workspace, and the stream every existing checkpoint
/// and test was trained with. The two hardware-faithful families model
/// the paper's GRNG designs feeding *training* instead of inference:
/// RLF (RAM-based linear feedback, Section 4.1) and BNNWallace
/// (Section 4.2). All three fork the same way (`seed → step → sample`),
/// so swapping the source changes only the noise values, never the
/// scheduling contract.
///
/// ```
/// use vibnn_bnn::TrainEpsSource;
/// assert_eq!(TrainEpsSource::default(), TrainEpsSource::Ziggurat);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TrainEpsSource {
    /// Software Ziggurat (the default; bit-identical to historical runs).
    #[default]
    Ziggurat,
    /// RLF-GRNG: the paper's RAM-based linear feedback design.
    Rlf,
    /// BNNWallace-GRNG: the paper's Wallace-transform design.
    BnnWallace,
}

impl std::fmt::Display for TrainEpsSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrainEpsSource::Ziggurat => "ziggurat",
            TrainEpsSource::Rlf => "rlf",
            TrainEpsSource::BnnWallace => "bnnwallace",
        })
    }
}

/// The training ε generator behind [`TrainEpsSource`]: one concrete
/// generator per family, all forked identically. Only ever forked,
/// never consumed in place, so checkpoints persist nothing beyond the
/// seed and the (runtime-only) source choice.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Ziggurat (table-heavy, the default) is
// forked once per MC sample in the hot step loop; boxing it would trade a
// stack copy for a per-fork heap allocation and break the allocation-free
// steady-state contract (`tests/alloc_steady_state.rs`).
pub(crate) enum TrainEps {
    Ziggurat(ZigguratGrng),
    Rlf(ParallelRlfGrng),
    BnnWallace(BnnWallaceGrng),
}

impl TrainEps {
    /// Builds the family's generator from the (already-mixed) seed. The
    /// RLF and Wallace shapes follow the workspace idiom: 64 RLF lanes,
    /// an 8-unit / 256-pool Wallace.
    pub(crate) fn new(source: TrainEpsSource, seed: u64) -> Self {
        match source {
            TrainEpsSource::Ziggurat => TrainEps::Ziggurat(ZigguratGrng::new(seed)),
            TrainEpsSource::Rlf => TrainEps::Rlf(ParallelRlfGrng::new(64, seed)),
            TrainEpsSource::BnnWallace => {
                TrainEps::BnnWallace(BnnWallaceGrng::new(8, 256, seed))
            }
        }
    }

    pub(crate) fn source(&self) -> TrainEpsSource {
        match self {
            TrainEps::Ziggurat(_) => TrainEpsSource::Ziggurat,
            TrainEps::Rlf(_) => TrainEpsSource::Rlf,
            TrainEps::BnnWallace(_) => TrainEpsSource::BnnWallace,
        }
    }
}

impl GaussianSource for TrainEps {
    fn next_gaussian(&mut self) -> f64 {
        match self {
            TrainEps::Ziggurat(g) => g.next_gaussian(),
            TrainEps::Rlf(g) => g.next_gaussian(),
            TrainEps::BnnWallace(g) => g.next_gaussian(),
        }
    }

    fn fill(&mut self, out: &mut [f64]) {
        match self {
            TrainEps::Ziggurat(g) => g.fill(out),
            TrainEps::Rlf(g) => g.fill(out),
            TrainEps::BnnWallace(g) => g.fill(out),
        }
    }

    fn fill_f32(&mut self, out: &mut [f32]) {
        match self {
            TrainEps::Ziggurat(g) => g.fill_f32(out),
            TrainEps::Rlf(g) => g.fill_f32(out),
            TrainEps::BnnWallace(g) => g.fill_f32(out),
        }
    }
}

impl StreamFork for TrainEps {
    fn fork(&self, stream_id: u64) -> Self {
        match self {
            TrainEps::Ziggurat(g) => TrainEps::Ziggurat(g.fork(stream_id)),
            TrainEps::Rlf(g) => TrainEps::Rlf(g.fork(stream_id)),
            TrainEps::BnnWallace(g) => TrainEps::BnnWallace(g.fork(stream_id)),
        }
    }
}

/// A Bayesian MLP with Gaussian variational posteriors over all weights.
///
/// Training runs through the deterministic data-parallel engine (see
/// [`Self::train_batch_mc`]): each step forks one ε substream per Monte
/// Carlo gradient sample, shards the minibatch into fixed-size
/// microbatches across `std::thread::scope` workers, and reduces the
/// gradients in a fixed order — so the trained parameters are
/// **bit-identical at any thread count**.
#[derive(Debug, Clone)]
pub struct Bnn {
    pub(crate) cfg: BnnConfig,
    pub(crate) layers: Vec<VarDense>,
    pub(crate) opt: Adam,
    pub(crate) slots: Vec<[usize; 4]>,
    /// Base generator for training ε. Step `t`, sample `s` draws from
    /// `train_eps.fork(t).fork(s)` — consumption-independent, so the
    /// stream a sample sees never depends on scheduling. The software
    /// Ziggurat is the fastest high-quality generator in the workspace;
    /// training happens off-accelerator (paper Section 2.2), so the
    /// hardware-GRNG seam only binds at inference/deployment.
    ///
    /// `train_eps` is only ever *forked*, never consumed, so its state is
    /// fully determined by `seed` — checkpoints persist the seed alone.
    /// [`Bnn::set_train_eps_source`] swaps the generator family behind
    /// the same forking discipline.
    pub(crate) train_eps: TrainEps,
    pub(crate) shuffle_rng: GaussianInit,
    pub(crate) step: u64,
    /// The construction seed (all internal RNGs derive from it).
    pub(crate) seed: u64,
    /// Uniform draws consumed from `shuffle_rng` so far. A checkpoint
    /// stores this count; loading fast-forwards a fresh generator by the
    /// same number of draws, making epoch shuffles resume exactly.
    pub(crate) shuffle_draws: u64,
    /// Completed training epochs. LR schedules index on this, so a
    /// checkpointed run resumes its schedule where it left off.
    pub(crate) epochs_trained: u64,
    /// Pooled per-step tensors (a pure cache — carries no training state;
    /// checkpoints ignore it).
    pub(crate) arena: StepArena,
    /// Cumulative per-phase wall-clock spend of the training engine.
    pub(crate) phase_seconds: StepPhaseSeconds,
}

impl Bnn {
    /// Builds the network.
    pub fn new(cfg: BnnConfig, seed: u64) -> Self {
        let mut layers = Vec::new();
        for (i, w) in cfg.sizes.windows(2).enumerate() {
            layers.push(VarDense::new(
                w[0],
                w[1],
                cfg.sigma_init,
                seed.wrapping_add(i as u64 * 104_729),
            ));
        }
        let mut opt = Adam::new(cfg.lr);
        let slots = layers
            .iter()
            .map(|l| {
                [
                    opt.slot(l.in_dim(), l.out_dim()),
                    opt.slot(l.in_dim(), l.out_dim()),
                    opt.slot(1, l.out_dim()),
                    opt.slot(1, l.out_dim()),
                ]
            })
            .collect();
        Self {
            cfg,
            layers,
            opt,
            slots,
            train_eps: TrainEps::new(TrainEpsSource::Ziggurat, seed ^ 0xBEEF),
            shuffle_rng: GaussianInit::new(seed ^ 0xFACE),
            step: 0,
            seed,
            shuffle_draws: 0,
            epochs_trained: 0,
            arena: StepArena::default(),
            phase_seconds: StepPhaseSeconds::default(),
        }
    }

    /// Selects which generator family supplies training ε from the next
    /// step on, re-deriving the stream from the construction seed (the
    /// same `seed ^ 0xBEEF` mixing every family uses). Setting
    /// [`TrainEpsSource::Ziggurat`] restores the historical stream
    /// bit-for-bit. The choice is runtime-only: checkpoints don't
    /// persist it, and loads come back with the Ziggurat default —
    /// re-apply it before resuming if a run trained with another
    /// family.
    pub fn set_train_eps_source(&mut self, source: TrainEpsSource) {
        self.train_eps = TrainEps::new(source, self.seed ^ 0xBEEF);
    }

    /// Which generator family currently supplies training ε.
    pub fn train_eps_source(&self) -> TrainEpsSource {
        self.train_eps.source()
    }

    /// Cumulative wall-clock seconds the training engine has spent in
    /// each step phase (draw / shard passes / reduction / tail) since
    /// construction, plus the step count — the source of `bench_train`'s
    /// phase breakdown. Subtract two snapshots to profile a window.
    pub fn phase_seconds(&self) -> StepPhaseSeconds {
        self.phase_seconds
    }

    /// The configuration.
    pub fn config(&self) -> &BnnConfig {
        &self.cfg
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of optimizer steps (minibatches) taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Number of completed training epochs (any epoch driver). LR
    /// schedules index on this, so resumed runs continue their schedule
    /// instead of restarting it.
    pub fn epochs_trained(&self) -> u64 {
        self.epochs_trained
    }

    /// The optimizer's current learning rate (may differ from the
    /// configured base rate when a schedule is active).
    pub fn lr(&self) -> f32 {
        self.opt.lr()
    }

    /// Sets the optimizer learning rate — the seam LR schedules plug
    /// into (see [`crate::LrSchedule`]).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn set_lr(&mut self, lr: f32) {
        self.opt.set_lr(lr);
    }

    /// Borrow the layers.
    pub fn layers(&self) -> &[VarDense] {
        &self.layers
    }

    /// Snapshots the trained `(µ, σ)` parameters for deployment.
    pub fn params(&self) -> BnnParams {
        BnnParams {
            weight_mu: self.layers.iter().map(|l| l.mu().clone()).collect(),
            weight_sigma: self.layers.iter().map(|l| l.sigma()).collect(),
            bias_mu: self.layers.iter().map(|l| l.bias_mu().to_vec()).collect(),
            bias_sigma: self.layers.iter().map(|l| l.bias_sigma()).collect(),
        }
    }

    /// One sampled forward pass ending in softmax, on reusable buffers.
    /// The input is borrowed directly by the first layer — no per-sample
    /// clone of the batch.
    fn sample_probs(
        &self,
        x: &Matrix,
        eps_src: &mut impl GaussianSource,
        scratch: &mut EpsScratch,
    ) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = h.as_ref().unwrap_or(x);
            let mut out = layer.forward_sample_inference_with(input, eps_src, scratch);
            if i < last {
                relu(&mut out);
            }
            h = Some(out);
        }
        let mut probs = h.expect("at least one layer");
        softmax_rows(&mut probs);
        probs
    }

    /// Monte Carlo predictive probabilities: averages the softmax output
    /// over `samples` weight draws (paper equation 6), with the ensemble
    /// spread across `threads` `std::thread::scope` workers. This is the
    /// seam where the hardware GRNGs plug in.
    ///
    /// Sample `s` always draws its ε from `eps_src.fork(s)`, and the
    /// per-sample softmax outputs are reduced in ascending sample order
    /// after all workers join — so the result is **bit-identical for every
    /// thread count** (and to `threads == 1`). Pass `threads == 0` to use
    /// the [`crate::vibnn_threads`] knob (`VIBNN_THREADS`).
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn predict_proba_mc_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> Matrix {
        parallel_mc_reduce(samples, threads, eps_src, |src, scratch: &mut EpsScratch| {
            self.sample_probs(x, src, scratch)
        })
    }

    /// Deterministic predictive probabilities using the posterior means.
    pub fn predict_proba_mean(&self, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = h.as_ref().unwrap_or(x);
            let mut out = layer.forward_mean(input);
            if i < last {
                relu(&mut out);
            }
            h = Some(out);
        }
        let mut probs = h.expect("at least one layer");
        softmax_rows(&mut probs);
        probs
    }

    /// Accuracy under MC inference (see
    /// [`Self::predict_proba_mc_parallel`] for the ε and threading
    /// contract).
    pub fn evaluate_mc_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        labels: &[usize],
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> f64 {
        accuracy(
            &self.predict_proba_mc_parallel(x, samples, eps_src, threads),
            labels,
        )
    }

    /// Accuracy under mean-weight inference.
    pub fn evaluate_mean(&self, x: &Matrix, labels: &[usize]) -> f64 {
        accuracy(&self.predict_proba_mean(x), labels)
    }

    /// One Bayes-by-Backprop step on a minibatch (single MC gradient
    /// sample) through the data-parallel engine; returns
    /// `(total loss, nll, kl)`. Equivalent to
    /// [`Self::train_batch_mc`]`(x, labels, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize]) -> (f64, f64, f64) {
        self.train_batch_mc_threads(x, labels, 1, 0)
    }

    /// One Bayes-by-Backprop step with the gradient averaged over
    /// `samples` Monte Carlo weight draws (the paper's
    /// reparameterization-trick estimator), with worker count from the
    /// `VIBNN_THREADS` knob. See [`Self::train_batch_mc_threads`] for the
    /// full contract.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or `samples == 0`.
    pub fn train_batch_mc(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        samples: usize,
    ) -> (f64, f64, f64) {
        self.train_batch_mc_threads(x, labels, samples, 0)
    }

    /// One step of the deterministic data-parallel training engine;
    /// returns `(total loss, nll, kl)`.
    ///
    /// MC sample `s` of step `t` draws every ε tensor from the forked
    /// substream `fork(t).fork(s)` in block form; the minibatch is
    /// sharded into fixed 16-row microbatches whose forward/backward
    /// passes are spread over `threads` `std::thread::scope` workers
    /// (`threads == 0` honours [`crate::vibnn_threads`]); and gradients
    /// are reduced in ascending `(sample, shard)` order. Both the shard
    /// partition and the reduction order depend only on the inputs, so
    /// losses and parameters are **bit-identical for every thread
    /// count**.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, an empty batch, or `samples == 0`.
    pub fn train_batch_mc_threads(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        samples: usize,
        threads: usize,
    ) -> (f64, f64, f64) {
        assert_eq!(x.rows(), labels.len(), "batch size mismatch");
        assert!(x.rows() > 0, "empty batch");
        assert!(samples > 0, "need at least one Monte Carlo sample");
        // Tail (part 1): σ/σ′ precompute over fixed-boundary chunks.
        let t_tail = std::time::Instant::now();
        let num_layers = self.layers.len();
        if self.arena.shared.len() != num_layers {
            self.arena
                .shared
                .resize_with(num_layers, crate::LayerShared::default);
        }
        for (layer, sh) in self.layers.iter().zip(self.arena.shared.iter_mut()) {
            layer.step_shared_into(sh, threads);
        }
        let mut tail_s = t_tail.elapsed().as_secs_f64();
        let step_src = self.train_eps.fork(self.step);
        self.step += 1;
        let stats = run_step(
            &self.layers,
            x,
            labels,
            samples,
            threads,
            &step_src,
            &mut self.arena,
        );
        let nll = stats.nll_sum / (x.rows() as f64 * samples as f64);
        // Tail (part 2): gradient finish + optimizer, both chunk-parallel
        // over the same fixed boundaries.
        let t_tail = std::time::Instant::now();
        let prior_std = self.cfg.prior.std() as f32;
        let kl_weight = self.cfg.kl_weight;
        let mut kl = 0.0;
        for ((layer, sh), lg) in self
            .layers
            .iter_mut()
            .zip(&self.arena.shared)
            .zip(self.arena.reduced.iter_mut())
        {
            kl += layer.finish_step_grads(sh, prior_std, kl_weight, lg, threads);
        }
        self.opt.tick();
        let step = self.opt.step_params();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let [smu, srho, sbmu, sbrho] = self.slots[i];
            let ((mu, gmu), (rho, grho), (bmu, gbmu), (brho, gbrho)) = layer.params_mut();
            for (slot, param, grad) in [
                (smu, mu.data_mut(), gmu.data()),
                (srho, rho.data_mut(), grho.data()),
            ] {
                let (m, v) = self.opt.slot_state_mut(slot);
                // Adam is elementwise, so fixed-chunk parallelism cannot
                // change any value.
                let items = param
                    .chunks_mut(TAIL_CHUNK)
                    .zip(grad.chunks(TAIL_CHUNK))
                    .zip(m.chunks_mut(TAIL_CHUNK))
                    .zip(v.chunks_mut(TAIL_CHUNK));
                chunked_fold(threads, items, |(((p, g), m), v)| {
                    step.apply(p, g, m, v);
                    0.0
                });
            }
            let (m, v) = self.opt.slot_state_mut(sbmu);
            step.apply(bmu, gbmu, m, v);
            let (m, v) = self.opt.slot_state_mut(sbrho);
            step.apply(brho, gbrho, m, v);
        }
        tail_s += t_tail.elapsed().as_secs_f64();
        self.phase_seconds.draw += stats.draw;
        self.phase_seconds.shards += stats.shards;
        self.phase_seconds.reduce += stats.reduce;
        self.phase_seconds.tail += tail_s;
        self.phase_seconds.steps += 1;
        let total = nll + f64::from(kl_weight) * kl;
        (total, nll, kl)
    }

    /// One epoch with deterministic shuffling (single MC gradient sample,
    /// `VIBNN_THREADS` workers). Equivalent to
    /// [`Self::train_epoch_mc`]`(x, labels, batch, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or shapes mismatch.
    pub fn train_epoch(&mut self, x: &Matrix, labels: &[usize], batch: usize) -> BnnTrainReport {
        self.train_epoch_mc_threads(x, labels, batch, 1, 0)
    }

    /// One epoch with the per-step gradient averaged over `samples` MC
    /// weight draws, worker count from the `VIBNN_THREADS` knob.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `samples == 0`, or shapes mismatch.
    pub fn train_epoch_mc(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        batch: usize,
        samples: usize,
    ) -> BnnTrainReport {
        self.train_epoch_mc_threads(x, labels, batch, samples, 0)
    }

    /// One epoch through the data-parallel engine with an explicit worker
    /// count (`threads == 0` honours [`crate::vibnn_threads`]). The
    /// shuffle, ε substreams, shard partition, and reduction order are all
    /// thread-count-independent, so the report and the trained parameters
    /// are bit-identical for every `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `samples == 0`, or shapes mismatch.
    pub fn train_epoch_mc_threads(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        batch: usize,
        samples: usize,
        threads: usize,
    ) -> BnnTrainReport {
        self.epoch_driver(x, labels, batch, |bnn, bx, by| {
            bnn.train_batch_mc_threads(bx, by, samples, threads)
        })
    }

    /// The shared epoch loop: one deterministic Fisher–Yates shuffle from
    /// `shuffle_rng`, then `step` per minibatch. Both the engine epochs
    /// and the seed-reference epoch run through this single driver, so
    /// their shuffles (and therefore their batch sequences) can never
    /// drift apart.
    fn epoch_driver(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        batch: usize,
        mut step: impl FnMut(&mut Self, &Matrix, &[usize]) -> (f64, f64, f64),
    ) -> BnnTrainReport {
        assert!(batch > 0, "batch size must be positive");
        assert_eq!(x.rows(), labels.len(), "dataset size mismatch");
        let n = x.rows();
        // Pooled epoch scratch: take the buffers out of the arena so
        // `step` can borrow `self` mutably, then put them back.
        let mut order = std::mem::take(&mut self.arena.order);
        let mut bx = std::mem::take(&mut self.arena.batch_x);
        let mut by = std::mem::take(&mut self.arena.batch_y);
        order.clear();
        order.extend(0..n);
        for i in (1..n).rev() {
            let j = (self.shuffle_rng.next_uniform() * (i + 1) as f64) as usize;
            order.swap(i, j.min(i));
        }
        self.shuffle_draws += n.saturating_sub(1) as u64;
        let (mut tl, mut tn, mut tk, mut b) = (0.0, 0.0, 0.0, 0u32);
        for chunk in order.chunks(batch) {
            x.select_rows_into(chunk, &mut bx);
            by.clear();
            by.extend(chunk.iter().map(|&i| labels[i]));
            let (l, nll, kl) = step(self, &bx, &by);
            tl += l;
            tn += nll;
            tk += kl;
            b += 1;
        }
        self.arena.order = order;
        self.arena.batch_x = bx;
        self.arena.batch_y = by;
        self.epochs_trained += 1;
        let b = f64::from(b.max(1));
        BnnTrainReport {
            loss: tl / b,
            nll: tn / b,
            kl: tk / b,
            accuracy: self.evaluate_mean(x, labels),
        }
    }

    /// The seed's scalar training step, retained verbatim as the
    /// benchmark baseline (`bench_train`'s "seed scalar path") and as a
    /// statistical cross-check for the engine: single-threaded, one
    /// continuous ε stream through the whole batch, per-layer activation
    /// clones, and optimizer round-trips through temporary buffers.
    /// Not part of the engine's bit-identity contract.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn train_batch_reference(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        eps_src: &mut impl GaussianSource,
    ) -> (f64, f64, f64) {
        assert_eq!(x.rows(), labels.len(), "batch size mismatch");
        let last = self.layers.len() - 1;
        let mut h = x.clone();
        let mut post_relu: Vec<Matrix> = Vec::with_capacity(last);
        for i in 0..self.layers.len() {
            h = self.layers[i].forward_sample(&h, eps_src);
            if i < last {
                relu(&mut h);
                post_relu.push(h.clone());
            }
        }
        let mut probs = h;
        softmax_rows(&mut probs);
        let nll = cross_entropy_loss(&probs, labels);

        let batch = x.rows() as f32;
        let mut grad = probs;
        for (r, &label) in labels.iter().enumerate() {
            grad[(r, label)] -= 1.0;
        }
        grad.scale(1.0 / batch);
        for i in (0..self.layers.len()).rev() {
            if i < last {
                relu_backward(&mut grad, &post_relu[i]);
            }
            grad = self.layers[i].backward(&grad);
        }
        // KL term and its gradients.
        let prior_std = self.cfg.prior.std() as f32;
        let mut kl = 0.0;
        for layer in &mut self.layers {
            kl += layer.accumulate_kl(prior_std, self.cfg.kl_weight);
        }
        // Apply updates (the seed's copy-out/copy-back round-trip).
        self.opt.tick();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let [smu, srho, sbmu, sbrho] = self.slots[i];
            let ((mu, gmu), (rho, grho), (bmu, gbmu), (brho, gbrho)) = layer.params_mut();
            let mut buf = mu.data().to_vec();
            self.opt.update(smu, &mut buf, gmu.data());
            mu.data_mut().copy_from_slice(&buf);
            let mut buf = rho.data().to_vec();
            self.opt.update(srho, &mut buf, grho.data());
            rho.data_mut().copy_from_slice(&buf);
            self.opt.update(sbmu, bmu, gbmu);
            self.opt.update(sbrho, brho, gbrho);
        }
        let total = nll + f64::from(self.cfg.kl_weight) * kl;
        (total, nll, kl)
    }

    /// One epoch over the seed's scalar path (see
    /// [`Self::train_batch_reference`]); same deterministic shuffle as the
    /// engine epochs.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or shapes mismatch.
    pub fn train_epoch_reference(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        batch: usize,
        eps_src: &mut impl GaussianSource,
    ) -> BnnTrainReport {
        self.epoch_driver(x, labels, batch, |bnn, bx, by| {
            bnn.train_batch_reference(bx, by, eps_src)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_grng::BoxMullerGrng;

    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = GaussianInit::new(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let a = rng.next_gaussian() as f32;
            let b = rng.next_gaussian() as f32;
            x[(r, 0)] = a;
            x[(r, 1)] = b;
            y.push(usize::from(a + b > 0.0));
        }
        (x, y)
    }

    #[test]
    fn bnn_learns_toy_problem() {
        let (x, y) = toy_data(512, 1);
        let mut bnn = Bnn::new(BnnConfig::new(&[2, 16, 2]).with_lr(0.02), 3);
        for _ in 0..40 {
            bnn.train_epoch(&x, &y, 64);
        }
        let acc = bnn.evaluate_mean(&x, &y);
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn mc_prediction_close_to_mean_prediction_when_trained() {
        let (x, y) = toy_data(256, 5);
        let mut bnn = Bnn::new(BnnConfig::new(&[2, 8, 2]).with_lr(0.02), 7);
        for _ in 0..30 {
            bnn.train_epoch(&x, &y, 64);
        }
        let acc_mc = bnn.evaluate_mc_parallel(&x, &y, 16, &BoxMullerGrng::new(11), 1);
        let acc_mean = bnn.evaluate_mean(&x, &y);
        assert!(
            (acc_mc - acc_mean).abs() < 0.1,
            "mc {acc_mc} vs mean {acc_mean}"
        );
    }

    #[test]
    fn kl_pressure_keeps_sigma_alive() {
        // With a KL term, posterior sigmas should not collapse to zero.
        let (x, y) = toy_data(256, 9);
        let mut bnn = Bnn::new(
            BnnConfig::new(&[2, 8, 2]).with_lr(0.02).with_kl_weight(1e-2),
            11,
        );
        for _ in 0..30 {
            bnn.train_epoch(&x, &y, 64);
        }
        let min_sigma = bnn
            .layers()
            .iter()
            .flat_map(|l| l.sigma().data().to_vec())
            .fold(f32::INFINITY, f32::min);
        assert!(min_sigma > 1e-4, "sigma collapsed to {min_sigma}");
    }

    #[test]
    fn loss_decreases_over_training() {
        let (x, y) = toy_data(256, 13);
        let mut bnn = Bnn::new(BnnConfig::new(&[2, 8, 2]).with_lr(0.02), 15);
        let first = bnn.train_epoch(&x, &y, 32).loss;
        for _ in 0..15 {
            bnn.train_epoch(&x, &y, 32);
        }
        let last = bnn.train_epoch(&x, &y, 32).loss;
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn params_snapshot_shapes() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 6, 3]), 17);
        let p = bnn.params();
        assert_eq!(p.layers(), 2);
        assert_eq!(p.layer_sizes(), vec![4, 6, 3]);
        assert_eq!(p.weight_count(), 4 * 6 + 6 * 3);
        assert!(p.max_abs_param() > 0.0);
        // All sigmas positive.
        for s in &p.weight_sigma {
            assert!(s.data().iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn mc_averaging_reduces_prediction_variance() {
        let bnn = Bnn::new(BnnConfig::new(&[2, 8, 2]).with_sigma_init(0.3), 19);
        let x = Matrix::from_rows(&[&[0.5, -0.5]]);
        let spread = |samples: usize, seed: u64| -> f64 {
            let mut outs = Vec::new();
            for trial in 0..20 {
                let eps = BoxMullerGrng::new(seed + trial);
                let p = bnn.predict_proba_mc_parallel(&x, samples, &eps, 1);
                outs.push(f64::from(p[(0, 0)]));
            }
            let m: f64 = outs.iter().sum::<f64>() / outs.len() as f64;
            outs.iter().map(|o| (o - m).powi(2)).sum::<f64>() / outs.len() as f64
        };
        let v1 = spread(1, 100);
        let v16 = spread(16, 200);
        assert!(v16 < v1, "variance should shrink with samples: {v1} -> {v16}");
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = toy_data(64, 21);
        let mut a = Bnn::new(BnnConfig::new(&[2, 4, 2]), 23);
        let mut b = Bnn::new(BnnConfig::new(&[2, 4, 2]), 23);
        assert_eq!(a.train_epoch(&x, &y, 16), b.train_epoch(&x, &y, 16));
    }

    #[test]
    #[should_panic(expected = "at least one Monte Carlo sample")]
    fn zero_samples_panics() {
        let bnn = Bnn::new(BnnConfig::new(&[2, 2]), 1);
        let eps = BoxMullerGrng::new(1);
        let _ = bnn.predict_proba_mc_parallel(&Matrix::zeros(1, 2), 0, &eps, 1);
    }

    // The thread-count bit-identity and `train_batch_mc(1) == train_batch`
    // contracts are pinned by the integration suite
    // (`tests/train_determinism.rs`, run explicitly by ci.sh) — not
    // duplicated here.

    #[test]
    fn multi_sample_gradients_still_learn() {
        let (x, y) = toy_data(256, 71);
        let mut bnn = Bnn::new(BnnConfig::new(&[2, 16, 2]).with_lr(0.02), 73);
        for _ in 0..25 {
            bnn.train_epoch_mc(&x, &y, 64, 3);
        }
        let acc = bnn.evaluate_mean(&x, &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn reference_path_statistically_agrees_with_engine() {
        // Different ε assignment (one continuous stream vs forked
        // substreams), same estimator: both should learn the toy problem
        // to a similar accuracy.
        let (x, y) = toy_data(256, 81);
        let mut engine = Bnn::new(BnnConfig::new(&[2, 12, 2]).with_lr(0.02), 83);
        let mut seed_path = engine.clone();
        let mut eps = BoxMullerGrng::new(85);
        for _ in 0..25 {
            engine.train_epoch(&x, &y, 64);
            seed_path.train_epoch_reference(&x, &y, 64, &mut eps);
        }
        let ea = engine.evaluate_mean(&x, &y);
        let ra = seed_path.evaluate_mean(&x, &y);
        assert!(ea > 0.85 && ra > 0.85, "engine {ea} vs reference {ra}");
    }

    #[test]
    #[should_panic(expected = "at least one Monte Carlo sample")]
    fn zero_gradient_samples_panics() {
        let (x, y) = toy_data(8, 91);
        let mut bnn = Bnn::new(BnnConfig::new(&[2, 2]), 93);
        let _ = bnn.train_batch_mc(&x, &y, 0);
    }

    #[test]
    fn parallel_mc_is_bit_identical_across_thread_counts() {
        let bnn = Bnn::new(BnnConfig::new(&[3, 8, 2]).with_sigma_init(0.3), 25);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[0.0, 0.4, -0.2]]);
        let eps = BoxMullerGrng::new(31);
        let reference = bnn.predict_proba_mc_parallel(&x, 7, &eps, 1);
        for threads in [2usize, 3, 4, 16] {
            let got = bnn.predict_proba_mc_parallel(&x, 7, &eps, threads);
            assert_eq!(
                got.data(),
                reference.data(),
                "{threads} threads diverged from 1 thread"
            );
        }
    }
}
