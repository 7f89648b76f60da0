//! Hardware-model invariants across configuration space.

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::grng::BoxMullerGrng;
use vibnn::hw::{AcceleratorConfig, CycleAccelerator, QuantizedBnn, ResourceModel, Schedule};
use vibnn::nn::Matrix;

fn cfg(t: usize, n: usize, mc: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        pe_sets: t,
        pes_per_set: n,
        pe_inputs: n,
        max_word_size: 4096,
        mc_samples: mc,
        ..AcceleratorConfig::paper()
    }
}

/// Ticks one Monte Carlo sample of `arch` on `c` and asserts the cycle
/// delta equals the closed form the cycle backend charges per sample.
fn assert_ticked_cycles_equal_schedule(arch: &[usize], c: &AcceleratorConfig) {
    let bnn = Bnn::new(BnnConfig::new(arch), 1);
    let calib = Matrix::zeros(2, arch[0]);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
    let mut sim = CycleAccelerator::new(c.clone(), q);
    let before = sim.stats().cycles;
    let _ = sim.infer_sample(calib.row(0), &mut BoxMullerGrng::new(7));
    assert_eq!(
        sim.stats().cycles - before,
        Schedule::new(c, arch).cycles_per_sample(),
        "{arch:?} at T={} N={}",
        c.pe_sets,
        c.pe_inputs
    );
}

#[test]
fn simulator_cycles_equal_schedule_across_geometries() {
    for (t, n) in [(1usize, 4usize), (2, 4), (4, 4), (2, 8), (4, 8)] {
        assert_ticked_cycles_equal_schedule(&[20, 24, 12, 4], &cfg(t, n, 1));
    }
    // Every valid geometry of `ablation_pe_geometry`'s grid, on the
    // paper's MNIST network and on the [26, 64, 2] interactive model.
    let mut valid = 0;
    for n in [4usize, 8, 16] {
        for t in [4usize, 8, 16, 32] {
            let c = AcceleratorConfig {
                max_word_size: 2048,
                ..cfg(t, n, 1)
            };
            if c.validate().is_err() || !c.writeback_ok(200) {
                continue;
            }
            valid += 1;
            assert_ticked_cycles_equal_schedule(&[784, 200, 200, 10], &c);
            assert_ticked_cycles_equal_schedule(&[26, 64, 2], &c);
        }
    }
    assert!(valid > 0, "the ablation grid has no valid geometry");
    assert_ticked_cycles_equal_schedule(&[26, 64, 2], &AcceleratorConfig::paper());
}

#[test]
fn simulator_outputs_invariant_to_geometry() {
    // The hardware geometry changes scheduling, never numerics.
    let arch = [20usize, 24, 4];
    let bnn = Bnn::new(BnnConfig::new(&arch), 3);
    let calib = Matrix::zeros(2, 20);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
    let mut reference: Option<Vec<f32>> = None;
    for (t, n) in [(1usize, 4usize), (4, 4), (2, 8)] {
        let mut sim = CycleAccelerator::new(cfg(t, n, 1), q.clone());
        let mut eps = BoxMullerGrng::new(11);
        let out = sim.infer_sample(calib.row(0), &mut eps);
        match &reference {
            None => reference = Some(out),
            Some(r) => {
                for (a, b) in r.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "geometry changed numerics");
                }
            }
        }
    }
}

#[test]
fn cycles_monotone_in_network_and_mc() {
    let base = Schedule::new(&cfg(4, 8, 1), &[64, 32, 8]).cycles_per_image();
    let wider = Schedule::new(&cfg(4, 8, 1), &[128, 64, 8]).cycles_per_image();
    let more_mc = Schedule::new(&cfg(4, 8, 4), &[64, 32, 8]).cycles_per_image();
    assert!(wider > base);
    assert_eq!(more_mc, 4 * base);
}

#[test]
fn resource_model_monotone_in_pe_count() {
    let small = ResourceModel.system(&cfg(4, 8, 1), 50_000, 784);
    let big = ResourceModel.system(&cfg(16, 8, 1), 50_000, 784);
    assert!(big.alms > small.alms);
    assert!(big.registers > small.registers);
    assert!(big.dsps >= small.dsps);
}

#[test]
fn invalid_configs_rejected_everywhere() {
    let mut bad = cfg(4, 8, 1);
    bad.pes_per_set = 4; // S != N
    assert!(bad.validate().is_err());
    let bnn = Bnn::new(BnnConfig::new(&[8, 4]), 1);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(1, 8));
    let result = std::panic::catch_unwind(|| CycleAccelerator::new(bad, q));
    assert!(result.is_err(), "simulator accepted an invalid config");
}
