//! # VIBNN — Hardware Acceleration of Bayesian Neural Networks
//!
//! A full-system reproduction of *VIBNN* (Cai, Ren, et al., ASPLOS 2018):
//! an FPGA accelerator for variational inference on Bayesian neural
//! networks, rebuilt as a cycle-level simulator plus a complete software
//! stack (GRNGs, BNN training, fixed-point datapath, datasets, and the
//! paper's experiment suite).
//!
//! The subsystem crates are re-exported here:
//!
//! - [`rng`] — LFSRs, RAM-based linear feedback, parallel counters.
//! - [`grng`] — the paper's RLF-GRNG and BNNWallace-GRNG plus reference
//!   Gaussian generators.
//! - [`stats`] — runs/KS/χ²/AD tests, moments (Table 1, Figure 15).
//! - [`nn`] / [`bnn`] — plain MLPs and Bayes-by-Backprop BNNs.
//! - [`fixed`] — Qm.n fixed-point arithmetic (the 8-bit datapath).
//! - [`datasets`] — deterministic synthetic stand-ins for MNIST and the
//!   disease-diagnosis datasets.
//! - [`hw`] — the cycle-level accelerator simulator and FPGA resource,
//!   power, and timing models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
pub mod backend;
mod checkpoint;
pub mod cluster;
mod error;
pub mod experiments;
pub mod ingest;
pub mod online;
mod pipeline;
pub mod sampler;
pub mod serve;

pub use accelerator::{train_and_deploy, Vibnn, VibnnBuilder};
pub use backend::{BackendCost, BackendKind, InferenceBackend};
pub use cluster::{
    ClusterConfig, ClusterEngine, ClusterMetrics, Priority, ReplicaMetrics, SubmitOptions,
    SwapReport, UncertaintyStats,
};
pub use error::VibnnError;
pub use ingest::{IngestClient, IngestConfig, IngestServer};
pub use online::{OnlineConfig, OnlineEvent, OnlineEventKind, OnlineReport, OnlineRuntime, RoundReport};
pub use pipeline::{Deployed, Pipeline, TrainedPipeline};
pub use sampler::{PolicySpec, SampleDecision, SampleObservation, SamplingPolicy};
pub use serve::{ServeConfig, ServeEngine, ServeResult};

pub use vibnn_bnn as bnn;
pub use vibnn_datasets as datasets;
pub use vibnn_fixed as fixed;
pub use vibnn_grng as grng;
pub use vibnn_hw as hw;
pub use vibnn_nn as nn;
pub use vibnn_rng as rng;
pub use vibnn_stats as stats;

/// The FNV-1a offset basis: the digest of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a digest `h` (started at
/// [`FNV_OFFSET`]).
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
