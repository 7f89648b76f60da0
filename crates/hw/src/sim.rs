//! Cycle-ticked component simulation of the accelerator.
//!
//! [`CycleAccelerator`] executes a quantized BNN inference the way the
//! hardware does — PE-set by PE-set, iteration by iteration — while
//! counting cycles and memory traffic. Its logits are bit-identical to
//! [`crate::QuantizedBnn::forward_with_weights`] (same integer
//! arithmetic, same order), its Monte Carlo probabilities to
//! [`crate::QuantizedBnn::predict_proba_mc_parallel`] (same softmax, same
//! mean), and its cycle count equals the closed-form [`crate::Schedule`];
//! each equivalence is enforced by tests.

use vibnn_bnn::reduce_mean;
use vibnn_fixed::MacAccumulator;
use vibnn_grng::{GaussianSource, StreamFork};
use vibnn_nn::{softmax_rows, Matrix};

use crate::controller::{LAYER_CONTROL, PIPELINE_FILL};
use crate::{AcceleratorConfig, QuantizedBnn, Schedule};

/// Counters accumulated during simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total clock cycles.
    pub cycles: u64,
    /// IFMem word reads (one per iteration cycle; the word feeds all PEs —
    /// the Section 5.4.1 access-reduction property).
    pub ifmem_reads: u64,
    /// IFMem word writes (one per PE-set result).
    pub ifmem_writes: u64,
    /// WPMem word reads (one per PE-set per iteration cycle).
    pub wpmem_reads: u64,
    /// Unit Gaussians consumed by the weight generator.
    pub eps_consumed: u64,
    /// MAC operations executed.
    pub macs: u64,
}

/// One request's share of the simulated hardware cost: the clock cycles
/// the accelerator spent on it and the energy those cycles dissipate at
/// the configured clock under the [`crate::power`] system model.
///
/// Produced per request by [`CycleAccelerator::infer_forked`]; the
/// per-request cycle counts sum exactly to the [`SimStats::cycles`] delta
/// over a run of requests (pinned by a regression test), so serve-side
/// cost attribution is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestCost {
    /// Clock cycles charged to this request (all its MC samples).
    pub cycles: u64,
    /// Energy in nanojoules for those cycles at the configured clock.
    pub energy_nj: f64,
}

/// The ticking accelerator model.
#[derive(Debug, Clone)]
pub struct CycleAccelerator {
    cfg: AcceleratorConfig,
    qbnn: QuantizedBnn,
    stats: SimStats,
}

impl CycleAccelerator {
    /// Builds the simulator for a deployed quantized network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AcceleratorConfig, qbnn: QuantizedBnn) -> Self {
        cfg.validate().expect("invalid accelerator configuration");
        Self {
            cfg,
            qbnn,
            stats: SimStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// The deployed network.
    pub fn network(&self) -> &QuantizedBnn {
        &self.qbnn
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Runs one image through one Monte Carlo sample, cycle by cycle,
    /// with weights freshly sampled from `eps_src` by the weight
    /// generator. Returns the dequantized logits.
    pub fn infer_sample(&mut self, input: &[f32], eps_src: &mut impl GaussianSource) -> Vec<f32> {
        let weights = self.qbnn.sample_weights(eps_src).tables();
        self.stats.eps_consumed += self
            .qbnn
            .layer_sizes()
            .windows(2)
            .map(|w| (w[0] * w[1] + w[1]) as u64)
            .sum::<u64>();
        self.run_ticked(input, &weights)
    }

    /// Runs one image through all configured MC samples, tick by tick,
    /// where sample `s` draws its weights from the substream
    /// `eps.fork(s)` — the per-sample forking convention every Monte
    /// Carlo path uses. Each member's ticked logits go through
    /// [`softmax_rows`] and the members' mean through [`reduce_mean`]:
    /// the arithmetic of [`QuantizedBnn::sample_member`] and
    /// [`QuantizedBnn::predict_proba_mc_parallel`], so the result equals
    /// the functional datapath bit for bit. Because each row re-derives
    /// every sample's substream from scratch, results are independent of
    /// batch composition and arrival order.
    ///
    /// Returns the averaged class probabilities, the per-sample softmax
    /// probabilities (each a `1 × classes` matrix, for MC-spread
    /// statistics), and this request's exact [`RequestCost`].
    pub fn infer_forked<S: StreamFork>(
        &mut self,
        input: &[f32],
        eps: &S,
    ) -> (Vec<f32>, Vec<Matrix>, RequestCost) {
        let before = self.stats.cycles;
        let members: Vec<Matrix> = (0..self.cfg.mc_samples as u64)
            .map(|s| {
                let logits = self.infer_sample(input, &mut eps.fork(s));
                let mut probs = Matrix::from_vec(1, logits.len(), logits);
                softmax_rows(&mut probs);
                probs
            })
            .collect();
        let probs = reduce_mean(&members).data().to_vec();
        let cycles = self.stats.cycles - before;
        let cost = RequestCost {
            cycles,
            energy_nj: self.energy_nj(cycles),
        };
        (probs, members, cost)
    }

    /// System power draw in watts for this deployment under the
    /// [`crate::power`] model (static + clock-scaled dynamic terms for
    /// the PE array, memories, and the configured GRNG bank).
    pub fn power_w(&self) -> f64 {
        let sizes = self.qbnn.layer_sizes();
        let widest = sizes.iter().copied().max().unwrap_or(0);
        crate::power::system_power_w(&self.cfg, self.qbnn.total_weights(), widest)
    }

    /// Energy in nanojoules dissipated by `cycles` clock cycles at the
    /// configured clock frequency and modeled system power.
    pub fn energy_nj(&self, cycles: u64) -> f64 {
        // seconds = cycles / (clock_mhz * 1e6); nJ = seconds * W * 1e9.
        cycles as f64 * self.power_w() * 1e3 / self.cfg.clock_mhz
    }

    /// The ticked execution of one sample with explicit weights. Numeric
    /// results are bit-identical to the functional datapath.
    fn run_ticked(&mut self, input: &[f32], weights: &[(Vec<i32>, Vec<i32>)]) -> Vec<f32> {
        let spec = *self.qbnn.spec();
        let sizes = self.qbnn.layer_sizes();
        assert_eq!(input.len(), sizes[0], "input width mismatch");
        let m = self.cfg.total_pes();
        let n = self.cfg.pe_inputs;
        let t = self.cfg.pe_sets as u64;
        let act_f = spec.act_fmt.frac_bits();
        let w_f = spec.weight_fmt.frac_bits();

        // IFMem bank 0 holds the quantized input features.
        let mut activations: Vec<i32> = input
            .iter()
            .map(|&v| spec.act_fmt.quantize_f32(v))
            .collect();

        let last = weights.len() - 1;
        for (l, (w, b)) in weights.iter().enumerate() {
            let (d_in, d_out) = (sizes[l], sizes[l + 1]);
            let rounds = d_out.div_ceil(m);
            let iterations = d_in.div_ceil(n);
            let mut next: Vec<i32> = vec![0; d_out];
            for round in 0..rounds {
                // Each PE owns one output neuron this round.
                let base = round * m;
                let active = m.min(d_out - base);
                let mut accs: Vec<MacAccumulator> =
                    vec![MacAccumulator::new(); active];
                for it in 0..iterations {
                    // One cycle: the IFMem word (N features) broadcasts to
                    // every PE; each PE-set reads one WPMem word.
                    self.stats.cycles += 1;
                    self.stats.ifmem_reads += 1;
                    self.stats.wpmem_reads += t;
                    let lo = it * n;
                    let hi = ((it + 1) * n).min(d_in);
                    for (pe, acc) in accs.iter_mut().enumerate() {
                        let neuron = base + pe;
                        for i in lo..hi {
                            acc.mac(activations[i], w[i * d_out + neuron]);
                            self.stats.macs += 1;
                        }
                    }
                }
                // Bias + requantize + ReLU at pipeline drain; results are
                // collected by the memory distributor one PE-set word at a
                // time.
                for (pe, acc) in accs.iter_mut().enumerate() {
                    let neuron = base + pe;
                    acc.add_raw(i64::from(b[neuron]) << act_f);
                    let mut v = spec.act_fmt.requantize(acc.raw(), act_f + w_f);
                    if l < last {
                        v = vibnn_fixed::relu_raw(v);
                    }
                    next[neuron] = v;
                }
                self.stats.ifmem_writes += t.min(active.div_ceil(n) as u64);
            }
            // Pipeline fill, write-back drain, and layer control overhead.
            self.stats.cycles += PIPELINE_FILL + t + LAYER_CONTROL;
            activations = next;
        }
        activations
            .iter()
            .map(|&v| spec.act_fmt.dequantize(v) as f32)
            .collect()
    }

    /// Simulated throughput (images/s) for the deployed network at the
    /// configured clock: uses the verified closed-form schedule.
    pub fn images_per_second(&self) -> f64 {
        Schedule::new(&self.cfg, &self.qbnn.layer_sizes()).images_per_second()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_bnn::{Bnn, BnnConfig};
    use vibnn_grng::BoxMullerGrng;

    fn small_cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            pe_sets: 2,
            pes_per_set: 4,
            pe_inputs: 4,
            bit_len: 8,
            max_word_size: 1024,
            mc_samples: 2,
            ..AcceleratorConfig::paper()
        }
    }

    fn deployed(seed: u64) -> (CycleAccelerator, QuantizedBnn, Matrix) {
        let bnn = Bnn::new(BnnConfig::new(&[12, 16, 3]), seed);
        let calib = {
            let mut m = Matrix::zeros(4, 12);
            for (i, v) in m.data_mut().iter_mut().enumerate() {
                *v = (i as f32 * 0.137).sin();
            }
            m
        };
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
        (
            CycleAccelerator::new(small_cfg(), q.clone()),
            q,
            calib,
        )
    }

    #[test]
    fn ticked_outputs_match_functional_datapath() {
        let (mut sim, q, calib) = deployed(1);
        // Use identical eps streams for both paths.
        let mut eps_a = BoxMullerGrng::new(42);
        let mut eps_b = BoxMullerGrng::new(42);
        let weights = q.sample_weights(&mut eps_a);
        let functional = q.forward_with_weights(&calib.rows_slice(0, 1), &weights);
        let sim_out = {
            let w2 = q.sample_weights(&mut eps_b);
            sim.run_ticked(calib.row(0), &w2.tables())
        };
        for (c, &f) in functional.row(0).iter().enumerate() {
            assert_eq!(
                sim_out[c].to_bits(),
                f.to_bits(),
                "logit {c}: sim {} vs functional {f}",
                sim_out[c]
            );
        }
    }

    #[test]
    fn cycle_count_matches_schedule() {
        let (mut sim, _, calib) = deployed(2);
        let sched = Schedule::new(&small_cfg(), &[12, 16, 3]);
        let mut eps = BoxMullerGrng::new(7);
        let _ = sim.infer_sample(calib.row(0), &mut eps);
        assert_eq!(sim.stats().cycles, sched.cycles_per_sample());
    }

    #[test]
    fn full_inference_counts_all_samples() {
        let (mut sim, _, calib) = deployed(3);
        let sched = Schedule::new(&small_cfg(), &[12, 16, 3]);
        let (probs, _, cost) = sim.infer_forked(calib.row(0), &BoxMullerGrng::new(9));
        assert_eq!(sim.stats().cycles, sched.cycles_per_image());
        assert_eq!(cost.cycles, sched.cycles_per_image());
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mac_count_matches_network_size() {
        let (mut sim, _, calib) = deployed(4);
        let mut eps = BoxMullerGrng::new(11);
        let _ = sim.infer_sample(calib.row(0), &mut eps);
        assert_eq!(sim.stats().macs, 12 * 16 + 16 * 3);
    }

    #[test]
    fn eps_demand_matches_weight_and_bias_count() {
        let (mut sim, _, calib) = deployed(5);
        let mut eps = BoxMullerGrng::new(13);
        let _ = sim.infer_sample(calib.row(0), &mut eps);
        assert_eq!(
            sim.stats().eps_consumed,
            (12 * 16 + 16) as u64 + (16 * 3 + 3) as u64
        );
    }

    #[test]
    fn ifmem_reads_are_shared_across_pes() {
        // The Section 5.4.1 property: one IFMem read serves all PEs, so
        // reads = total iteration-cycles, not PEs x cycles.
        let (mut sim, _, calib) = deployed(6);
        let mut eps = BoxMullerGrng::new(15);
        let _ = sim.infer_sample(calib.row(0), &mut eps);
        let expected: u64 = Schedule::new(&small_cfg(), &[12, 16, 3])
            .layers()
            .iter()
            .map(|l| l.rounds * l.iterations)
            .sum();
        assert_eq!(sim.stats().ifmem_reads, expected);
    }

    #[test]
    fn parallel_hw_mc_is_bit_identical_across_thread_counts() {
        let (_, q, calib) = deployed(9);
        let eps = BoxMullerGrng::new(23);
        let reference = q.predict_proba_mc_parallel(&calib, 5, &eps, 1);
        for threads in [2usize, 4, 8] {
            let got = q.predict_proba_mc_parallel(&calib, 5, &eps, threads);
            assert_eq!(got.data(), reference.data(), "{threads} threads diverged");
        }
        let labels = vec![0usize; calib.rows()];
        let acc = q.evaluate_mc_parallel(&calib, &labels, 5, &eps, 2);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn per_request_costs_sum_to_batch_total() {
        let (mut sim, _, calib) = deployed(10);
        let eps = BoxMullerGrng::new(29);
        let before = sim.stats().cycles;
        let costs: Vec<RequestCost> = (0..calib.rows())
            .map(|r| sim.infer_forked(calib.row(r), &eps).2)
            .collect();
        let total = sim.stats().cycles - before;
        let summed: u64 = costs.iter().map(|c| c.cycles).sum();
        assert_eq!(summed, total, "per-request cycles must sum to batch total");
        // Energy is linear in cycles, so the sum matches to rounding.
        let energy_total = sim.energy_nj(total);
        let energy_summed: f64 = costs.iter().map(|c| c.energy_nj).sum();
        assert!(
            (energy_summed - energy_total).abs() <= 1e-9 * energy_total.max(1.0),
            "energy sum {energy_summed} vs batch {energy_total}"
        );
        assert!(costs.iter().all(|c| c.cycles > 0 && c.energy_nj > 0.0));
    }

    #[test]
    fn forked_inference_is_batch_composition_independent() {
        let (mut sim, _, calib) = deployed(11);
        let eps = BoxMullerGrng::new(31);
        let (alone, members, cost) = sim.infer_forked(calib.row(2), &eps);
        assert_eq!(members.len(), small_cfg().mc_samples);
        assert!(cost.cycles > 0 && cost.energy_nj > 0.0);
        // Serving the same row after others must not change its answer.
        let mut other = CycleAccelerator::new(small_cfg(), sim.network().clone());
        let _ = other.infer_forked(calib.row(0), &eps);
        let _ = other.infer_forked(calib.row(1), &eps);
        let (again, _, cost_again) = other.infer_forked(calib.row(2), &eps);
        let same = alone
            .iter()
            .zip(&again)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "forked inference depends on batch composition");
        assert_eq!(cost.cycles, cost_again.cycles);
    }

    #[test]
    fn energy_model_is_linear_in_cycles() {
        let (sim, _, _) = deployed(12);
        assert!(sim.power_w() > 0.0);
        assert_eq!(sim.energy_nj(0), 0.0);
        let one = sim.energy_nj(1);
        assert!((sim.energy_nj(1000) - 1000.0 * one).abs() < 1e-9 * 1000.0 * one);
    }

    #[test]
    fn reset_stats_clears() {
        let (mut sim, _, calib) = deployed(7);
        let mut eps = BoxMullerGrng::new(17);
        let _ = sim.infer_sample(calib.row(0), &mut eps);
        assert!(sim.stats().cycles > 0);
        sim.reset_stats();
        assert_eq!(sim.stats(), SimStats::default());
    }

    #[test]
    fn paper_config_throughput_close_to_table5() {
        let bnn = Bnn::new(BnnConfig::paper_mnist(), 21);
        let calib = Matrix::zeros(2, 784);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
        let sim = CycleAccelerator::new(AcceleratorConfig::paper(), q);
        let tput = sim.images_per_second();
        assert!(
            (tput - 321_543.4).abs() / 321_543.4 < 0.15,
            "throughput {tput:.0}"
        );
    }
}
