//! CPU/GPU baselines for the Table 5 comparison.
//!
//! The paper benchmarks an Intel i7-6700K and an Nvidia GTX 1070 running
//! the software BNN. Neither device is available here, so this module
//! provides (a) the paper's published numbers as anchors and (b) a native
//! measurement of the software BNN on the measuring host, with a
//! documented TDP assumption for the energy figure. The measurement runs
//! single-threaded Monte Carlo inference with the same ε convention as
//! every other inference path: sample `s` draws from `eps.fork(s)`.

use std::time::Instant;

use vibnn_bnn::Bnn;
use vibnn_grng::StreamFork;
use vibnn_nn::Matrix;

/// A throughput/energy point for Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Configuration label.
    pub name: String,
    /// Images per second.
    pub images_per_second: f64,
    /// Images per joule.
    pub images_per_joule: f64,
}

/// Paper Table 5: Intel i7-6700K software BNN.
pub fn paper_cpu() -> BaselinePoint {
    BaselinePoint {
        name: "Intel i7-6700k (paper)".to_owned(),
        images_per_second: 10_478.1,
        images_per_joule: 115.1,
    }
}

/// Paper Table 5: Nvidia GTX 1070 software BNN.
pub fn paper_gpu() -> BaselinePoint {
    BaselinePoint {
        name: "Nvidia GTX1070 (paper)".to_owned(),
        images_per_second: 27_988.1,
        images_per_joule: 186.6,
    }
}

/// Assumed package power (W) for the native host measurement's energy
/// figure (i7-6700K TDP class; documented substitution — no RAPL access).
pub const ASSUMED_HOST_POWER_W: f64 = 91.0;

/// Measures software BNN MC-inference throughput on this host: runs
/// `images` single-image inferences with `samples` MC samples each (one
/// thread, sample `s` on `eps_src.fork(s)`) and returns images/s plus an
/// images/J estimate under [`ASSUMED_HOST_POWER_W`].
///
/// # Panics
///
/// Panics if `images == 0` or `x` has fewer rows than `images`.
pub fn measure_native_cpu<S: StreamFork + Sync>(
    bnn: &Bnn,
    x: &Matrix,
    images: usize,
    samples: usize,
    eps_src: &S,
) -> BaselinePoint {
    assert!(images > 0, "need at least one image");
    assert!(x.rows() >= images, "not enough rows for requested images");
    let start = Instant::now();
    for r in 0..images {
        let row = x.rows_slice(r, r + 1);
        let _ = bnn.predict_proba_mc_parallel(&row, samples, eps_src, 1);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let ips = images as f64 / secs;
    BaselinePoint {
        name: "native host CPU (measured)".to_owned(),
        images_per_second: ips,
        images_per_joule: ips / ASSUMED_HOST_POWER_W,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_bnn::BnnConfig;
    use vibnn_grng::BoxMullerGrng;

    #[test]
    fn paper_anchors_have_expected_ordering() {
        let cpu = paper_cpu();
        let gpu = paper_gpu();
        assert!(gpu.images_per_second > cpu.images_per_second);
        assert!(gpu.images_per_joule > cpu.images_per_joule);
    }

    #[test]
    fn native_measurement_runs() {
        let bnn = Bnn::new(BnnConfig::new(&[16, 8, 2]), 1);
        let x = Matrix::zeros(4, 16);
        let p = measure_native_cpu(&bnn, &x, 4, 2, &BoxMullerGrng::new(2));
        assert!(p.images_per_second > 0.0);
        assert!(p.images_per_joule > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn zero_images_panics() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 2]), 1);
        let x = Matrix::zeros(1, 4);
        let _ = measure_native_cpu(&bnn, &x, 0, 1, &BoxMullerGrng::new(1));
    }
}
