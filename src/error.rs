//! The deployment API's typed error, [`VibnnError`].

use vibnn_bnn::CheckpointError;
use vibnn_hw::ConfigError;

/// Everything that can go wrong across the deployment API: building a
/// [`Vibnn`](crate::Vibnn), training a [`Pipeline`](crate::Pipeline),
/// reading or writing checkpoints, and serving requests.
///
/// # Example
///
/// ```
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::{VibnnBuilder, VibnnError};
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
/// // No calibration inputs: `build` reports the problem instead of
/// // panicking.
/// match VibnnBuilder::new(bnn.params()).build() {
///     Err(VibnnError::MissingCalibration) => {}
///     other => panic!("expected MissingCalibration, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum VibnnError {
    /// No calibration inputs were provided (or the calibration matrix has
    /// zero rows); activation-range selection needs at least one row.
    MissingCalibration,
    /// The parameter snapshot does not describe a usable network (no
    /// layers, a zero-sized dimension, or inconsistent layer chaining).
    BadTopology(String),
    /// Two shapes that must agree do not.
    ShapeMismatch {
        /// What was being checked (e.g. `"calibration width"`).
        context: &'static str,
        /// The required extent.
        expected: usize,
        /// The extent actually found.
        got: usize,
    },
    /// A label is outside `0..classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The number of output classes.
        classes: usize,
    },
    /// The accelerator configuration violates an architectural constraint.
    Config(ConfigError),
    /// A checkpoint could not be written or read back.
    Checkpoint(CheckpointError),
    /// The serving configuration is unusable (zero batch or queue size).
    BadServeConfig(&'static str),
    /// The serving queue is at capacity — backpressure. Carries the
    /// observed depth and the configured limit so callers can implement
    /// informed backoff (e.g. wait proportionally to `depth / capacity`)
    /// instead of blind spinning.
    QueueFull {
        /// Requests queued at the moment the submission was refused.
        depth: usize,
        /// The configured
        /// [`ClusterConfig::max_queue`](crate::cluster::ClusterConfig::max_queue).
        capacity: usize,
    },
    /// The request's deadline passed before a replica computed it — at
    /// admission, or while it sat in the queue. The request never
    /// touches a replica once it is known to be late, so an expired
    /// request costs no Monte Carlo work.
    DeadlineExceeded,
    /// A wire-protocol violation: a malformed, unexpected, or oversized
    /// message on the ingestion socket. Carries a human-readable reason.
    Protocol(String),
    /// The serving engine has shut down and can no longer accept or
    /// answer requests.
    EngineStopped,
    /// A result was requested for a request id that was never issued.
    UnknownRequest(u64),
    /// A cluster operation named a replica index outside the pool.
    UnknownReplica(usize),
    /// A risk-tiered sampling policy declined to answer: after
    /// `samples_used` Monte Carlo draws the prediction's normalized
    /// entropy was still at or above the policy's escalation threshold.
    /// `entropy_milli` is that final entropy in thousandths of the
    /// maximum `ln(classes)`, so the abstention is exactly attributable.
    Abstained {
        /// Monte Carlo samples drawn before abstaining (the full budget).
        samples_used: u32,
        /// Final normalized predictive entropy, in thousandths.
        entropy_milli: u32,
    },
    /// Admission predicted the request cannot finish before its
    /// deadline: the target replica's observed per-sample cycle cost
    /// times the configured sample budget exceeds the deadline's
    /// remaining time, so the request is shed before costing any Monte
    /// Carlo work.
    BudgetExceeded {
        /// Predicted time to serve the request, in microseconds.
        predicted_micros: u64,
        /// Time remaining until the deadline at admission, in microseconds.
        remaining_micros: u64,
    },
}

impl std::fmt::Display for VibnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VibnnError::MissingCalibration => {
                write!(f, "calibration inputs required: call .calibration(x)")
            }
            VibnnError::BadTopology(why) => write!(f, "bad network topology: {why}"),
            VibnnError::ShapeMismatch {
                context,
                expected,
                got,
            } => write!(f, "{context}: expected {expected}, got {got}"),
            VibnnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            VibnnError::Config(e) => write!(f, "invalid accelerator configuration: {e}"),
            VibnnError::Checkpoint(e) => write!(f, "{e}"),
            VibnnError::BadServeConfig(why) => write!(f, "invalid serving configuration: {why}"),
            VibnnError::QueueFull { depth, capacity } => {
                write!(f, "serving queue full ({depth} queued, capacity {capacity})")
            }
            VibnnError::DeadlineExceeded => {
                write!(f, "request deadline expired before it was served")
            }
            VibnnError::Protocol(why) => write!(f, "wire protocol violation: {why}"),
            VibnnError::EngineStopped => write!(f, "serving engine has stopped"),
            VibnnError::UnknownRequest(id) => write!(f, "unknown request id {id}"),
            VibnnError::UnknownReplica(i) => write!(f, "unknown replica index {i}"),
            VibnnError::Abstained {
                samples_used,
                entropy_milli,
            } => write!(
                f,
                "abstained: entropy {}.{:03} of max after {samples_used} samples",
                entropy_milli / 1000,
                entropy_milli % 1000
            ),
            VibnnError::BudgetExceeded {
                predicted_micros,
                remaining_micros,
            } => write!(
                f,
                "budget exceeded: predicted {predicted_micros}us of work, \
                 {remaining_micros}us until the deadline"
            ),
        }
    }
}

impl std::error::Error for VibnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VibnnError::Config(e) => Some(e),
            VibnnError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for VibnnError {
    fn from(e: ConfigError) -> Self {
        VibnnError::Config(e)
    }
}

impl From<CheckpointError> for VibnnError {
    fn from(e: CheckpointError) -> Self {
        VibnnError::Checkpoint(e)
    }
}

impl From<std::io::Error> for VibnnError {
    fn from(e: std::io::Error) -> Self {
        VibnnError::Checkpoint(CheckpointError::Io(e))
    }
}
