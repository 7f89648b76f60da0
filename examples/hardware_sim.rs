//! Cycle-accurate hardware walk-through: deploy the paper's 784-200-200-10
//! network, run one image tick by tick, and print the schedule, memory
//! traffic, and performance model.
//!
//! Run with: `cargo run --release --example hardware_sim`

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::grng::BnnWallaceGrng;
use vibnn::hw::{power, AcceleratorConfig, CycleAccelerator, QuantizedBnn, ResourceModel, Schedule};
use vibnn::nn::Matrix;

fn main() {
    let cfg = AcceleratorConfig::paper();
    println!("configuration: T={} PE-sets x S={} PEs x N={} inputs, B={} bits, {} MHz",
        cfg.pe_sets, cfg.pes_per_set, cfg.pe_inputs, cfg.bit_len, cfg.clock_mhz);

    // An (untrained) paper-sized network is enough to exercise the datapath.
    let bnn = Bnn::new(BnnConfig::paper_mnist(), 3);
    let mut calib = Matrix::zeros(4, 784);
    for (i, v) in calib.data_mut().iter_mut().enumerate() {
        *v = ((i % 29) as f32) / 29.0;
    }
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);

    let sched = Schedule::new(&cfg, &[784, 200, 200, 10]);
    println!("\nschedule (per MC sample):");
    for (i, l) in sched.layers().iter().enumerate() {
        println!("  layer {i}: {} rounds x {} iterations = {} cycles total",
            l.rounds, l.iterations, l.total);
    }
    println!("  cycles/sample: {} (ideal bound {})",
        sched.cycles_per_sample(), sched.ideal_cycles_per_sample());
    println!("  PE utilization: {:.1}%", 100.0 * sched.utilization());

    let mut sim = CycleAccelerator::new(cfg.clone(), q);
    let eps = BnnWallaceGrng::new(8, 256, 5);
    let (probs, _, _) = sim.infer_forked(calib.row(0), &eps);
    let s = sim.stats();
    println!("\none image, cycle-accurate:");
    println!("  cycles {}  MACs {}  eps consumed {}", s.cycles, s.macs, s.eps_consumed);
    println!("  IFMem reads {}  writes {}  WPMem reads {}", s.ifmem_reads, s.ifmem_writes, s.wpmem_reads);
    println!("  output probabilities: {probs:?}");

    let weights = 784 * 200 + 200 * 200 + 200 * 10;
    let res = ResourceModel.system(&cfg, weights, 784);
    println!("\nperformance model (paper Tables 4/5 analogue):");
    println!("  throughput {:.0} images/s", sched.images_per_second());
    let p = power::system_power_w(&cfg, weights, 784);
    println!("  power {:.2} W -> {:.0} images/J", p, sched.images_per_second() / p);
    println!("  ALMs {} ({:.1}%)  DSPs {}  block bits {} ({:.1}%)",
        res.alms, 100.0 * res.alm_utilization(), res.dsps,
        res.block_bits, 100.0 * res.block_bit_utilization());
}
