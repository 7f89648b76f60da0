//! Bayesian neural networks trained by Bayes-by-Backprop (Blundell et al.),
//! the model class VIBNN accelerates.
//!
//! Weights are Gaussian posteriors `q(w; θ) = N(µ, σ²)` with
//! `σ = ln(1 + exp(ρ))` (paper equation 2). Training minimizes the ELBO
//! (KL to a Gaussian prior + expected negative log likelihood) with the
//! reparameterization trick; inference averages the network output over
//! Monte Carlo weight samples (paper equations 5–6), with the unit
//! Gaussians supplied by *any* [`vibnn_grng::GaussianSource`] — which is
//! exactly the seam where the hardware GRNGs plug in.
//!
//! # Example
//!
//! ```
//! use vibnn_bnn::{Bnn, BnnConfig};
//! use vibnn_grng::BoxMullerGrng;
//! use vibnn_nn::Matrix;
//!
//! let bnn = Bnn::new(BnnConfig::new(&[4, 8, 2]), 42);
//! let x = Matrix::zeros(1, 4);
//! let eps = BoxMullerGrng::new(7);
//! // Sample `s` of the 8 draws its ε from `eps.fork(s)`, on one thread.
//! let probs = bnn.predict_proba_mc_parallel(&x, 8, &eps, 1);
//! let sum: f32 = probs.row(0).iter().sum();
//! assert!((sum - 1.0).abs() < 1e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bnn;
pub mod checkpoint;
mod fastmath;
mod mc;
mod prior;
mod schedule;
mod threads;
mod train;
mod var_dense;

pub use bnn::{Bnn, BnnConfig, BnnTrainReport, TrainEpsSource};
pub use checkpoint::CheckpointError;
pub use mc::{
    parallel_fork_map, parallel_mc_reduce, parallel_ordered_tasks, reduce_mean, replica_source,
};
pub use prior::{GaussianPrior, ScaleMixturePrior};
pub use schedule::{EarlyStop, LrSchedule, ScheduledRun, TrainSchedule};
pub use threads::vibnn_threads;
pub use train::StepPhaseSeconds;
pub use var_dense::{softplus, softplus_derivative, EpsScratch, LayerGrads, LayerShared, VarDense};

/// A frozen snapshot of a trained BNN's variational parameters, expressed
/// as per-layer `(µ, σ)` matrices — the exact artifact that gets migrated
/// to the accelerator's weight-parameter memory (paper Section 2.2).
#[derive(Debug, Clone)]
pub struct BnnParams {
    /// Per-layer weight means, each `in_dim × out_dim`.
    pub weight_mu: Vec<vibnn_nn::Matrix>,
    /// Per-layer weight standard deviations, same shapes.
    pub weight_sigma: Vec<vibnn_nn::Matrix>,
    /// Per-layer bias means.
    pub bias_mu: Vec<Vec<f32>>,
    /// Per-layer bias standard deviations.
    pub bias_sigma: Vec<Vec<f32>>,
}

impl BnnParams {
    /// Layer count.
    pub fn layers(&self) -> usize {
        self.weight_mu.len()
    }

    /// Layer sizes as `[input, hidden…, output]`.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.weight_mu[0].rows()];
        sizes.extend(self.weight_mu.iter().map(|m| m.cols()));
        sizes
    }

    /// Total number of weight parameters (µ count; the paper notes BNNs
    /// double the parameters of an equivalent FNN by adding σ).
    pub fn weight_count(&self) -> usize {
        self.weight_mu.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Largest absolute value over all µ and σ (used to pick fixed-point
    /// scaling for the hardware datapath).
    pub fn max_abs_param(&self) -> f32 {
        let mut m = 0.0f32;
        for w in self.weight_mu.iter().chain(&self.weight_sigma) {
            for &v in w.data() {
                m = m.max(v.abs());
            }
        }
        for b in self.bias_mu.iter().chain(&self.bias_sigma) {
            for &v in b {
                m = m.max(v.abs());
            }
        }
        m
    }
}
