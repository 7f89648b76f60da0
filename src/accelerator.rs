//! High-level API: train → quantize → deploy → infer.

use vibnn_bnn::{Bnn, BnnParams, TrainSchedule};
use vibnn_grng::{GrngKind, StreamFork};
use vibnn_hw::{AcceleratorConfig, CycleAccelerator, QuantizedBnn, ResourceModel, Schedule};
use vibnn_nn::Matrix;

use crate::backend::BackendKind;
use crate::pipeline::train_round;
use crate::sampler::PolicySpec;
use crate::VibnnError;

/// Builder for a deployed [`Vibnn`] accelerator instance.
///
/// Construction is **fallible**: [`build`](Self::build) returns
/// `Result<Vibnn, VibnnError>` and reports missing calibration data, bad
/// topologies, shape mismatches, and invalid accelerator configurations
/// as typed variants instead of panicking
/// ([`build_unchecked`](Self::build_unchecked) keeps the old panicking
/// behaviour for scripts).
///
/// # Example
///
/// ```
/// use vibnn::VibnnBuilder;
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::nn::Matrix;
///
/// let bnn = Bnn::new(BnnConfig::new(&[8, 16, 2]), 1);
/// let calib = Matrix::zeros(4, 8);
/// let accel = VibnnBuilder::new(bnn.params())
///     .bit_len(8)
///     .calibration(calib)
///     .build()
///     .expect("valid deployment");
/// assert_eq!(accel.classes(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct VibnnBuilder {
    params: BnnParams,
    bit_len: u32,
    config: AcceleratorConfig,
    calibration: Option<Matrix>,
    mc_samples: usize,
    backend: BackendKind,
    policy: PolicySpec,
}

/// Checks that a parameter snapshot describes a deployable network:
/// at least one layer, no zero-sized dimension, per-layer tensors with
/// mutually consistent shapes, and consecutive layers that chain.
pub(crate) fn validate_topology(params: &BnnParams) -> Result<(), VibnnError> {
    let layers = params.layers();
    if layers == 0 {
        return Err(VibnnError::BadTopology(
            "parameter snapshot has no layers (empty layer list)".into(),
        ));
    }
    if params.weight_sigma.len() != layers
        || params.bias_mu.len() != layers
        || params.bias_sigma.len() != layers
    {
        return Err(VibnnError::BadTopology(format!(
            "per-layer tensor counts disagree: {} mu, {} sigma, {} bias mu, {} bias sigma",
            layers,
            params.weight_sigma.len(),
            params.bias_mu.len(),
            params.bias_sigma.len()
        )));
    }
    for l in 0..layers {
        let mu = &params.weight_mu[l];
        if mu.rows() == 0 || mu.cols() == 0 {
            return Err(VibnnError::BadTopology(format!(
                "layer {l} has a zero dimension ({}x{})",
                mu.rows(),
                mu.cols()
            )));
        }
        let sg = &params.weight_sigma[l];
        if (sg.rows(), sg.cols()) != (mu.rows(), mu.cols()) {
            return Err(VibnnError::BadTopology(format!(
                "layer {l}: sigma shape {}x{} != mu shape {}x{}",
                sg.rows(),
                sg.cols(),
                mu.rows(),
                mu.cols()
            )));
        }
        if params.bias_mu[l].len() != mu.cols() || params.bias_sigma[l].len() != mu.cols() {
            return Err(VibnnError::BadTopology(format!(
                "layer {l}: bias lengths ({}, {}) != output width {}",
                params.bias_mu[l].len(),
                params.bias_sigma[l].len(),
                mu.cols()
            )));
        }
        if l + 1 < layers && params.weight_mu[l + 1].rows() != mu.cols() {
            return Err(VibnnError::BadTopology(format!(
                "layer {l} output width {} does not chain into layer {} input width {}",
                mu.cols(),
                l + 1,
                params.weight_mu[l + 1].rows()
            )));
        }
    }
    Ok(())
}

impl VibnnBuilder {
    /// Starts from trained variational parameters.
    pub fn new(params: BnnParams) -> Self {
        Self {
            params,
            bit_len: 8,
            config: AcceleratorConfig::paper(),
            calibration: None,
            mc_samples: 8,
            backend: BackendKind::default(),
            policy: PolicySpec::default(),
        }
    }

    /// Sets the datapath bit length (default 8, per Figure 18).
    pub fn bit_len(mut self, bits: u32) -> Self {
        self.bit_len = bits;
        self
    }

    /// Selects the GRNG design (default RLF).
    pub fn grng(mut self, kind: GrngKind) -> Self {
        self.config.grng = kind;
        self
    }

    /// Overrides the full accelerator configuration.
    pub fn config(mut self, config: AcceleratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Provides calibration inputs for activation-range selection.
    pub fn calibration(mut self, x: Matrix) -> Self {
        self.calibration = Some(x);
        self
    }

    /// Sets Monte Carlo samples per prediction (default 8).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn mc_samples(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one Monte Carlo sample");
        self.mc_samples = n;
        self
    }

    /// Selects the deployment's default serving backend (default
    /// [`BackendKind::Quantized`] — the historical path). Serving
    /// engines honour this unless their own `ServeConfig::backend`
    /// overrides it. Runtime-only: checkpoints do not persist it, so a
    /// loaded deployment serves quantized unless re-selected.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Selects the deployment's default sampling policy (default
    /// [`PolicySpec::ExactN`] — the full-budget reference, bit-identical
    /// to the historical serve path). Serving engines honour this
    /// unless their own `ServeConfig::policy` overrides it.
    /// Runtime-only: checkpoints do not persist it, so a loaded
    /// deployment serves exact-N unless re-selected.
    pub fn sampling_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Quantizes the network and constructs the accelerator.
    ///
    /// # Errors
    ///
    /// - [`VibnnError::BadTopology`] — empty layer list, zero-sized
    ///   dimension, or inconsistent per-layer shapes.
    /// - [`VibnnError::MissingCalibration`] — no calibration inputs (or an
    ///   empty calibration matrix).
    /// - [`VibnnError::ShapeMismatch`] — calibration width differs from
    ///   the network's input width.
    /// - [`VibnnError::Config`] — the accelerator configuration (or the
    ///   datapath bit length) violates an architectural constraint.
    pub fn build(self) -> Result<Vibnn, VibnnError> {
        validate_topology(&self.params)?;
        if !(2..=32).contains(&self.bit_len) {
            return Err(VibnnError::Config(
                vibnn_hw::ConfigError::BadBitLength(self.bit_len),
            ));
        }
        let calib = self.calibration.ok_or(VibnnError::MissingCalibration)?;
        if calib.rows() == 0 {
            return Err(VibnnError::MissingCalibration);
        }
        let input_dim = self.params.weight_mu[0].rows();
        if calib.cols() != input_dim {
            return Err(VibnnError::ShapeMismatch {
                context: "calibration width",
                expected: input_dim,
                got: calib.cols(),
            });
        }
        let mut config = self.config;
        config.mc_samples = self.mc_samples;
        config.validate()?;
        let qbnn = QuantizedBnn::from_params(&self.params, self.bit_len, &calib);
        let sim = CycleAccelerator::new(config.clone(), qbnn.clone());
        let classes = self.params.weight_mu[self.params.layers() - 1].cols();
        Ok(Vibnn {
            qbnn,
            sim,
            config,
            mc_samples: self.mc_samples,
            params: self.params,
            bit_len: self.bit_len,
            classes,
            default_backend: self.backend,
            default_policy: self.policy,
        })
    }

    /// [`build`](Self::build) for contexts where failure is a bug.
    ///
    /// # Panics
    ///
    /// Panics with the [`VibnnError`] display message on any build error.
    pub fn build_unchecked(self) -> Vibnn {
        match self.build() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }
}

/// A deployed VIBNN accelerator: quantized network + cycle simulator +
/// performance models.
#[derive(Debug, Clone)]
pub struct Vibnn {
    pub(crate) qbnn: QuantizedBnn,
    pub(crate) sim: CycleAccelerator,
    pub(crate) config: AcceleratorConfig,
    pub(crate) mc_samples: usize,
    /// The float parameter snapshot the deployment was quantized from —
    /// retained so [`Vibnn::save`](crate::Vibnn::save) can ship an exact,
    /// re-quantizable checkpoint.
    pub(crate) params: BnnParams,
    pub(crate) bit_len: u32,
    pub(crate) classes: usize,
    /// Which backend serving engines dispatch through when their
    /// `ServeConfig` does not override it. Runtime-only — kind-3
    /// checkpoints do not persist it (loads default to quantized).
    pub(crate) default_backend: BackendKind,
    /// Which sampling policy serving engines apply when their
    /// `ServeConfig` does not override it. Runtime-only — checkpoints
    /// do not persist it (loads default to exact-N).
    pub(crate) default_policy: PolicySpec,
}

impl Vibnn {
    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Width of the input feature vector.
    pub fn input_dim(&self) -> usize {
        self.params.weight_mu[0].rows()
    }

    /// Monte Carlo samples per prediction.
    pub fn mc_samples(&self) -> usize {
        self.mc_samples
    }

    /// The datapath bit length the network was quantized to.
    pub fn bit_len(&self) -> u32 {
        self.bit_len
    }

    /// The float parameters the deployment was quantized from.
    pub fn params(&self) -> &BnnParams {
        &self.params
    }

    /// The deployed quantized network (fast functional datapath).
    pub fn network(&self) -> &QuantizedBnn {
        &self.qbnn
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The deployment's default serving backend (see
    /// [`VibnnBuilder::backend`]).
    pub fn default_backend(&self) -> BackendKind {
        self.default_backend
    }

    /// The deployment's default sampling policy (see
    /// [`VibnnBuilder::sampling_policy`]).
    pub fn default_policy(&self) -> PolicySpec {
        self.default_policy
    }

    /// Batch prediction on the functional fixed-point datapath, with the
    /// Monte Carlo ensemble spread across worker threads (`threads == 0`
    /// honours `VIBNN_THREADS`). Sample `s` draws from `eps.fork(s)`, so
    /// results are bit-identical for every thread count, and each row
    /// equals [`CycleAccelerator::infer_forked`] on the cycle simulator
    /// bit for bit.
    pub fn predict_proba_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        eps: &S,
        threads: usize,
    ) -> Matrix {
        self.qbnn
            .predict_proba_mc_parallel(x, self.mc_samples, eps, threads)
    }

    /// Accuracy on a labelled set (see [`Self::predict_proba_parallel`]).
    pub fn evaluate_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        y: &[usize],
        eps: &S,
        threads: usize,
    ) -> f64 {
        self.qbnn
            .evaluate_mc_parallel(x, y, self.mc_samples, eps, threads)
    }

    /// The cycle simulator. Cycle-accurate inference of one row is
    /// `simulator().infer_forked(row, &eps)`, which also counts cycles and
    /// memory traffic in [`CycleAccelerator::stats`].
    pub fn simulator(&mut self) -> &mut CycleAccelerator {
        &mut self.sim
    }

    /// Modelled throughput in images/s.
    pub fn images_per_second(&self) -> f64 {
        Schedule::new(&self.config, &self.qbnn.layer_sizes()).images_per_second()
    }

    /// Modelled power in watts.
    pub fn power_w(&self) -> f64 {
        let sizes = self.qbnn.layer_sizes();
        let max_width = sizes.iter().copied().max().unwrap_or(1);
        vibnn_hw::power::system_power_w(&self.config, self.qbnn.total_weights(), max_width)
    }

    /// Modelled energy efficiency in images/J.
    pub fn images_per_joule(&self) -> f64 {
        self.images_per_second() / self.power_w()
    }

    /// Modelled FPGA resource usage.
    pub fn resources(&self) -> vibnn_hw::SystemResources {
        let sizes = self.qbnn.layer_sizes();
        let max_width = sizes.iter().copied().max().unwrap_or(1);
        ResourceModel.system(&self.config, self.qbnn.total_weights(), max_width)
    }
}

/// Convenience: train a BNN and deploy it in one call.
///
/// Training runs through the deterministic data-parallel engine
/// ([`Bnn::train_epoch_mc`] with a single MC gradient sample): minibatches
/// are sharded across `VIBNN_THREADS` workers on forked ε substreams with
/// an ordered gradient reduction, so the deployed parameters are
/// bit-identical at every thread count.
///
/// For LR schedules, early stopping, checkpointing, and deployment
/// customization, use the [`Pipeline`](crate::Pipeline) builder this
/// wraps.
///
/// # Errors
///
/// [`VibnnError::ShapeMismatch`] when the dataset does not match the
/// network or `batch == 0`, [`VibnnError::LabelOutOfRange`] for a label
/// outside the class range, plus every [`VibnnBuilder::build`] error.
pub fn train_and_deploy(
    mut bnn: Bnn,
    train_x: &Matrix,
    train_y: &[usize],
    epochs: usize,
    batch: usize,
) -> Result<(Bnn, Vibnn), VibnnError> {
    train_round(
        &mut bnn,
        train_x,
        train_y,
        batch,
        1,
        0,
        &TrainSchedule::constant(epochs),
        None,
    )?;
    let calib = train_x.rows_slice(0, train_x.rows().min(128));
    let accel = VibnnBuilder::new(bnn.params()).calibration(calib).build()?;
    Ok((bnn, accel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_bnn::BnnConfig;
    use vibnn_grng::{BnnWallaceGrng, BoxMullerGrng, ParallelRlfGrng};

    #[test]
    fn builder_end_to_end() {
        let bnn = Bnn::new(BnnConfig::new(&[8, 16, 3]), 1);
        let calib = Matrix::zeros(4, 8);
        let accel = VibnnBuilder::new(bnn.params())
            .bit_len(8)
            .mc_samples(4)
            .calibration(calib.clone())
            .build()
            .expect("valid deployment");
        assert_eq!(accel.classes(), 3);
        assert_eq!(accel.input_dim(), 8);
        assert_eq!(accel.mc_samples(), 4);
        let probs = accel.predict_proba_parallel(&calib, &BoxMullerGrng::new(2), 1);
        assert_eq!((probs.rows(), probs.cols()), (4, 3));
        assert!(accel.images_per_second() > 0.0);
        assert!(accel.power_w() > 0.0);
        assert!(accel.images_per_joule() > 0.0);
        assert!(accel.resources().fits_device());
    }

    #[test]
    fn cycle_accurate_matches_functional_probabilities() {
        let bnn = Bnn::new(BnnConfig::new(&[6, 8, 2]), 3);
        let calib = Matrix::zeros(2, 6);
        let mut accel = VibnnBuilder::new(bnn.params())
            .mc_samples(2)
            .calibration(calib.clone())
            .build()
            .expect("valid deployment");
        fn check<S: StreamFork + Sync>(accel: &mut Vibnn, x: &Matrix, eps: &S) {
            let f = accel.predict_proba_parallel(x, eps, 1);
            let (t, _, _) = accel.simulator().infer_forked(x.row(0), eps);
            for (c, &p) in f.row(0).iter().enumerate() {
                assert_eq!(t[c].to_bits(), p.to_bits(), "class {c}: {} vs {p}", t[c]);
            }
        }
        let x = calib.rows_slice(0, 1);
        check(&mut accel, &x, &BoxMullerGrng::new(5));
        check(&mut accel, &x, &ParallelRlfGrng::new(64, 5));
        check(&mut accel, &x, &BnnWallaceGrng::new(4, 64, 5));
    }

    #[test]
    fn missing_calibration_is_a_typed_error() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
        assert!(matches!(
            VibnnBuilder::new(bnn.params()).build(),
            Err(VibnnError::MissingCalibration)
        ));
    }

    #[test]
    #[should_panic(expected = "calibration inputs required")]
    fn build_unchecked_keeps_the_panicking_path() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
        let _ = VibnnBuilder::new(bnn.params()).build_unchecked();
    }

    #[test]
    fn empty_layer_list_is_bad_topology_at_build_time() {
        // Regression: `Vibnn::classes()` used to `expect` on the layer
        // list; an empty snapshot now fails in `build` with a typed error.
        let empty = BnnParams {
            weight_mu: vec![],
            weight_sigma: vec![],
            bias_mu: vec![],
            bias_sigma: vec![],
        };
        assert!(matches!(
            VibnnBuilder::new(empty)
                .calibration(Matrix::zeros(1, 1))
                .build(),
            Err(VibnnError::BadTopology(_))
        ));
    }

    #[test]
    fn inconsistent_layer_shapes_are_bad_topology() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 3, 2]), 1);
        let mut params = bnn.params();
        // Break the chain: layer 1 no longer accepts layer 0's output.
        params.weight_mu[1] = Matrix::zeros(5, 2);
        params.weight_sigma[1] = Matrix::zeros(5, 2);
        assert!(matches!(
            VibnnBuilder::new(params)
                .calibration(Matrix::zeros(2, 4))
                .build(),
            Err(VibnnError::BadTopology(_))
        ));
    }

    #[test]
    fn calibration_width_mismatch_is_typed() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
        assert!(matches!(
            VibnnBuilder::new(bnn.params())
                .calibration(Matrix::zeros(2, 7))
                .build(),
            Err(VibnnError::ShapeMismatch {
                context: "calibration width",
                expected: 4,
                got: 7,
            })
        ));
    }

    #[test]
    fn invalid_accelerator_config_is_typed() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
        let cfg = AcceleratorConfig {
            pes_per_set: 4, // != pe_inputs: violates eq. 15c
            ..AcceleratorConfig::paper()
        };
        assert!(matches!(
            VibnnBuilder::new(bnn.params())
                .config(cfg)
                .calibration(Matrix::zeros(2, 4))
                .build(),
            Err(VibnnError::Config(_))
        ));
        let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
        assert!(matches!(
            VibnnBuilder::new(bnn.params())
                .bit_len(64)
                .calibration(Matrix::zeros(2, 4))
                .build(),
            Err(VibnnError::Config(vibnn_hw::ConfigError::BadBitLength(64)))
        ));
    }

    #[test]
    fn train_and_deploy_reports_shape_errors() {
        let bnn = Bnn::new(BnnConfig::new(&[6, 3, 2]), 7);
        let x = Matrix::zeros(8, 6);
        let y = vec![0usize; 5]; // wrong length
        assert!(matches!(
            train_and_deploy(bnn, &x, &y, 1, 4),
            Err(VibnnError::ShapeMismatch { .. })
        ));
    }
}
