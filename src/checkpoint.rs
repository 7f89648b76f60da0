//! Deployment checkpoints: `Vibnn::{save, load}`.
//!
//! A deployment checkpoint (envelope kind 3; see [`vibnn_bnn::checkpoint`]
//! for the shared envelope) persists everything needed to reconstruct a
//! deployed accelerator **bit-identically** — without re-running
//! calibration:
//!
//! ```text
//! header           magic b"VIBN", version u16, kind u8 = 3
//! accel config     pe_sets, pes_per_set, pe_inputs, bit_len,
//!                  max_word_size (u32 each), grng kind (u8),
//!                  grng_lanes (u32), clock_mhz (f64), mc_samples (u32)
//! deployment       mc_samples (u32, equal to the accel config's),
//!                  quantizer bit_len (u32)
//! quant spec       bit_len (u32), then 4 × (total_bits u32, frac_bits u32)
//!                  for the weight / sigma / activation / ε formats
//! parameters       the kind-1 BnnParams payload (shapes + f32 LE tensors)
//! ```
//!
//! Loading re-quantizes the stored float parameters under the stored
//! [`QuantizationSpec`] — a deterministic transformation, so predictions
//! from a loaded instance match the saved instance bit for bit.

use std::path::Path;

use vibnn_bnn::checkpoint::{
    read_params_payload, write_params_payload, CheckpointError, WireReader, WireWriter,
    KIND_DEPLOY,
};
use vibnn_fixed::QFormat;
use vibnn_grng::GrngKind;
use vibnn_hw::{AcceleratorConfig, CycleAccelerator, QuantizationSpec, QuantizedBnn};

use crate::accelerator::validate_topology;
use crate::{Vibnn, VibnnError};

fn write_format(w: &mut WireWriter, fmt: &QFormat) {
    w.u32(fmt.total_bits());
    w.u32(fmt.frac_bits());
}

fn read_format(r: &mut WireReader<'_>) -> Result<QFormat, CheckpointError> {
    let total = r.u32()?;
    let frac = r.u32()?;
    if !(2..=32).contains(&total) || frac >= total {
        return Err(CheckpointError::Corrupt(format!(
            "bad fixed-point format Q({total}, {frac})"
        )));
    }
    Ok(QFormat::new(total, frac))
}

impl Vibnn {
    /// Serializes the deployment as a kind-3 checkpoint envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(KIND_DEPLOY);
        let cfg = &self.config;
        w.dim(cfg.pe_sets);
        w.dim(cfg.pes_per_set);
        w.dim(cfg.pe_inputs);
        w.u32(cfg.bit_len);
        w.dim(cfg.max_word_size);
        w.u8(match cfg.grng {
            GrngKind::Rlf => 0,
            GrngKind::BnnWallace => 1,
        });
        w.dim(cfg.grng_lanes);
        w.f64(cfg.clock_mhz);
        w.dim(cfg.mc_samples);
        w.dim(self.mc_samples);
        w.u32(self.bit_len);
        let spec = self.qbnn.spec();
        w.u32(spec.bit_len);
        write_format(&mut w, &spec.weight_fmt);
        write_format(&mut w, &spec.sigma_fmt);
        write_format(&mut w, &spec.act_fmt);
        write_format(&mut w, &spec.eps_fmt);
        write_params_payload(&mut w, &self.params);
        w.into_bytes()
    }

    /// Reconstructs a deployment from a kind-3 envelope. The quantized
    /// tables, cycle simulator, and performance models come out identical
    /// to the instance that was saved.
    ///
    /// # Errors
    ///
    /// [`VibnnError::Checkpoint`] on malformed input,
    /// [`VibnnError::Config`] / [`VibnnError::BadTopology`] if the stored
    /// configuration or parameters fail validation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, VibnnError> {
        let mut r = WireReader::open(bytes, KIND_DEPLOY)?;
        let config = AcceleratorConfig {
            pe_sets: r.dim()?,
            pes_per_set: r.dim()?,
            pe_inputs: r.dim()?,
            bit_len: r.u32()?,
            max_word_size: r.dim()?,
            grng: match r.u8()? {
                0 => GrngKind::Rlf,
                1 => GrngKind::BnnWallace,
                k => {
                    return Err(VibnnError::Checkpoint(CheckpointError::Corrupt(format!(
                        "unknown GRNG kind {k}"
                    ))))
                }
            },
            grng_lanes: r.dim()?,
            clock_mhz: r.f64()?,
            mc_samples: r.dim()?,
        };
        let mc_samples = r.dim()?;
        let bit_len = r.u32()?;
        let spec = QuantizationSpec {
            bit_len: r.u32()?,
            weight_fmt: read_format(&mut r)?,
            sigma_fmt: read_format(&mut r)?,
            act_fmt: read_format(&mut r)?,
            eps_fmt: read_format(&mut r)?,
        };
        let params = read_params_payload(&mut r)?;
        r.finish().map_err(VibnnError::Checkpoint)?;
        validate_topology(&params)?;
        if mc_samples == 0 {
            return Err(VibnnError::Checkpoint(CheckpointError::Corrupt(
                "zero Monte Carlo samples".into(),
            )));
        }
        // The cycle simulator draws `config.mc_samples`, serving draws the
        // deployment's count; a file where they differ would serve
        // different sample counts down the two paths.
        if config.mc_samples != mc_samples {
            return Err(VibnnError::Checkpoint(CheckpointError::Corrupt(format!(
                "accelerator draws {} Monte Carlo samples but the deployment {mc_samples}",
                config.mc_samples
            ))));
        }
        config.validate()?;
        let qbnn = QuantizedBnn::with_spec(&params, spec);
        let sim = CycleAccelerator::new(config.clone(), qbnn.clone());
        let classes = params.weight_mu[params.layers() - 1].cols();
        Ok(Vibnn {
            qbnn,
            sim,
            config,
            mc_samples,
            params,
            bit_len,
            classes,
            // Backend and sampling policy are runtime serving choices,
            // not part of the deployment: loads come back with the
            // quantized / exact-N defaults.
            default_backend: crate::backend::BackendKind::default(),
            default_policy: crate::sampler::PolicySpec::default(),
        })
    }

    /// Writes the deployment checkpoint to `path` via the crash-safe
    /// atomic writer ([`vibnn_bnn::checkpoint::atomic_write`]): an
    /// interrupted save never corrupts an existing checkpoint.
    ///
    /// # Errors
    ///
    /// [`VibnnError::Checkpoint`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), VibnnError> {
        vibnn_bnn::checkpoint::atomic_write(path, &self.to_bytes())?;
        Ok(())
    }

    /// Loads a deployment checkpoint written by [`Vibnn::save`].
    ///
    /// # Errors
    ///
    /// Any [`VibnnError::Checkpoint`] / validation error on malformed
    /// content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, VibnnError> {
        Self::from_bytes(&std::fs::read(path).map_err(CheckpointError::Io)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VibnnBuilder;
    use vibnn_bnn::{Bnn, BnnConfig};
    use vibnn_grng::ZigguratGrng;
    use vibnn_nn::Matrix;

    #[test]
    fn deployment_round_trip_predicts_bit_identically() {
        let bnn = Bnn::new(BnnConfig::new(&[5, 7, 3]).with_sigma_init(0.1), 21);
        let calib = Matrix::from_rows(&[
            &[0.4, -0.2, 1.0, 0.1, -0.8],
            &[1.3, 0.6, -0.5, 0.0, 0.2],
        ]);
        let a = VibnnBuilder::new(bnn.params())
            .mc_samples(3)
            .calibration(calib.clone())
            .build()
            .unwrap();
        let b = Vibnn::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.classes(), a.classes());
        assert_eq!(b.bit_len(), a.bit_len());
        assert_eq!(b.mc_samples(), a.mc_samples());
        assert_eq!(b.network().spec(), a.network().spec());
        let pa = a.predict_proba_parallel(&calib, &ZigguratGrng::new(5), 2);
        let pb = b.predict_proba_parallel(&calib, &ZigguratGrng::new(5), 2);
        assert_eq!(pa.data(), pb.data());
        assert_eq!(a.images_per_second(), b.images_per_second());
    }

    #[test]
    fn deployment_rejects_disagreeing_sample_counts() {
        let bnn = Bnn::new(BnnConfig::new(&[3, 4, 2]), 5);
        let vibnn = VibnnBuilder::new(bnn.params())
            .mc_samples(3)
            .calibration(Matrix::zeros(2, 3))
            .build()
            .unwrap();
        let bytes = vibnn.to_bytes();
        // Header (magic 4, version 2, kind 1), five u32 knobs, the GRNG
        // kind byte, grng_lanes u32 and clock_mhz f64 precede the
        // accelerator's mc_samples; the deployment's follows it.
        let accel_at = 7 + 5 * 4 + 1 + 4 + 8;
        let deploy_at = accel_at + 4;
        for at in [accel_at, deploy_at] {
            assert_eq!(bytes[at..at + 4], 3u32.to_le_bytes(), "offset {at}");
        }
        for at in [accel_at, deploy_at] {
            let mut patched = bytes.clone();
            patched[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
            assert!(
                matches!(
                    Vibnn::from_bytes(&patched),
                    Err(VibnnError::Checkpoint(CheckpointError::Corrupt(_)))
                ),
                "a count patched at offset {at} must be rejected"
            );
        }
        // Patching both keeps the file consistent, and it loads.
        let mut both = bytes.clone();
        for at in [accel_at, deploy_at] {
            both[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
        }
        assert_eq!(Vibnn::from_bytes(&both).unwrap().mc_samples(), 4);
    }

    #[test]
    fn deployment_rejects_wrong_kind() {
        let bnn = Bnn::new(BnnConfig::new(&[3, 2]), 1);
        let params_file = bnn.params().to_bytes();
        assert!(matches!(
            Vibnn::from_bytes(&params_file),
            Err(VibnnError::Checkpoint(CheckpointError::WrongKind { .. }))
        ));
    }
}
