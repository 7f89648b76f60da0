//! Machine-readable training-engine benchmark: writes `BENCH_train.json`.
//!
//! Measures epochs/sec of BNN training on the MNIST-like workload in four
//! configurations — the retained seed path (single-threaded, scalar ε
//! draws, clone-heavy; `Bnn::train_epoch_reference`) and the
//! deterministic data-parallel engine at 1/2/4 worker threads (block ε
//! draws via forked substreams) — plus raw scalar-vs-block ε fill rates
//! for the training generator. The engine runs all start from one cloned
//! initial network, so the benchmark also *checks* the bit-identity
//! contract: per-epoch losses must match exactly across thread counts.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_train.json` in the
//! working directory. `VIBNN_SCALE=quick` shrinks the workload;
//! `default`/`full` use the paper's 784-200-200-10 architecture
//! (`full` additionally uses the full `LearnScale::paper()` training-set
//! size).
//!
//! The binary additionally reports a per-phase wall-time breakdown of the
//! engine step (ε draw / shard passes / gradient reduction / serial tail)
//! and, via a counting `#[global_allocator]` installed in this binary
//! only, the heap allocations per steady-state training step — the
//! `StepArena` contract says this must be 0 at one thread once the pools
//! are warm.

// The counting allocator below must implement `GlobalAlloc`, which is an
// `unsafe` trait; this is the one sanctioned exception to the workspace's
// `unsafe_code = "deny"` lint, scoped to this benchmark binary.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vibnn::experiments::LearnScale;
use vibnn_bench::{write_report, RunScale};
use vibnn_bnn::{Bnn, BnnConfig};
use vibnn_datasets::{mnist_like_with, MnistLikeSpec};
use vibnn_grng::{BoxMullerGrng, GaussianSource, ZigguratGrng};
use vibnn_nn::Matrix;

/// Counts every heap allocation (alloc + grow-realloc) made by the
/// process. Installed only in this benchmark binary — the library crates
/// never see it — so the steady-state zero-allocation claim is measured
/// against the real global allocator call stream.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations per steady-state `train_batch_mc_threads` step at one
/// thread: a few warm-up steps grow the `StepArena` pools to their
/// steady-state shapes, then `steps` further steps are counted.
fn allocations_per_step(
    initial: &Bnn,
    x: &Matrix,
    y: &[usize],
    batch: usize,
    samples: usize,
) -> f64 {
    let mut bnn = initial.clone();
    let rows = batch.min(x.rows());
    let bx = x.select_rows(&(0..rows).collect::<Vec<_>>());
    let by = &y[..rows];
    for _ in 0..3 {
        bnn.train_batch_mc_threads(&bx, by, samples, 1);
    }
    let steps = 16u32;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..steps {
        bnn.train_batch_mc_threads(&bx, by, samples, 1);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    f64::from((after - before) as u32) / f64::from(steps)
}

/// Forces the scalar ε path: only `next_gaussian` is implemented, so the
/// default `fill`/`fill_f32` loop one virtual-free scalar draw per slot —
/// exactly the seed's per-element consumption pattern.
struct ScalarEps<G>(G);

impl<G: GaussianSource> GaussianSource for ScalarEps<G> {
    fn next_gaussian(&mut self) -> f64 {
        self.0.next_gaussian()
    }
}

struct Run {
    threads: usize,
    epochs_per_sec: f64,
    losses: Vec<f64>,
}

/// Times each epoch individually and reports the *best* epoch's rate —
/// robust against transient slowdowns on shared machines (applied
/// identically to the baseline and every engine configuration, so the
/// comparison stays fair).
fn time_epochs(epochs: usize, mut f: impl FnMut() -> f64) -> (f64, Vec<f64>) {
    let mut best = f64::INFINITY;
    let mut losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let start = Instant::now();
        losses.push(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (1.0 / best, losses)
}

/// One throwaway epoch on a scratch clone so page faults, allocator
/// growth, and CPU frequency ramp-up land outside every measurement.
fn warm_up(initial: &Bnn, x: &Matrix, y: &[usize], batch: usize) {
    let mut scratch = initial.clone();
    std::hint::black_box(scratch.train_epoch_mc_threads(x, y, batch, 1, 1));
}

/// Best-of-3 fill rate: each repetition times ~0.2 s of fills and the
/// fastest wins, so a transient stall on a shared machine cannot tip the
/// block-vs-scalar guard.
fn fill_rate_msps(src: &mut impl GaussianSource, block: bool) -> f64 {
    let mut buf = vec![0.0f32; 65_536];
    // Warm-up.
    src.fill_f32(&mut buf);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut filled = 0usize;
        while start.elapsed().as_secs_f64() < 0.2 {
            if block {
                src.fill_f32(&mut buf);
            } else {
                for slot in &mut buf {
                    *slot = src.next_gaussian() as f32;
                }
            }
            filled += buf.len();
        }
        std::hint::black_box(buf[0]);
        best = best.max(filled as f64 / start.elapsed().as_secs_f64() / 1e6);
    }
    best
}

fn main() {
    let run_scale = RunScale::from_env();
    let scale = match run_scale {
        RunScale::Quick => LearnScale::smoke(),
        RunScale::Default => LearnScale {
            mnist_train: 2_000,
            ..LearnScale::paper()
        },
        RunScale::Full => LearnScale::paper(),
    };
    let epochs = match run_scale {
        RunScale::Quick => 2,
        _ => 3,
    };
    let ds = mnist_like_with(
        MnistLikeSpec {
            train_size: scale.mnist_train,
            test_size: 16,
            ..MnistLikeSpec::default()
        },
        1,
    );
    let arch = [ds.features(), scale.hidden, scale.hidden, ds.classes];
    let batch = 64.min(ds.train_len()).max(1);
    let cfg = BnnConfig::new(&arch)
        .with_lr(2e-3)
        .with_kl_weight(5e-4)
        .with_sigma_init(0.02)
        .with_prior_std(0.1);
    let initial = Bnn::new(cfg, 7);

    // Seed scalar path: one continuous scalar-ε stream, single thread.
    let (baseline_eps, baseline_losses) = {
        let mut bnn = initial.clone();
        let mut eps = ScalarEps(BoxMullerGrng::new(3));
        let x: &Matrix = &ds.train_x;
        warm_up(&initial, x, &ds.train_y, batch);
        time_epochs(epochs, || {
            bnn.train_epoch_reference(x, &ds.train_y, batch, &mut eps).loss
        })
    };

    // Engine at 1/2/4 threads, all from the same initial network. The
    // 1-thread run also contributes the per-phase wall-time breakdown.
    let mut phase_1t = vibnn_bnn::StepPhaseSeconds::default();
    let engine: Vec<Run> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let mut bnn = initial.clone();
            let x: &Matrix = &ds.train_x;
            warm_up(&initial, x, &ds.train_y, batch);
            let (eps_rate, losses) = time_epochs(epochs, || {
                bnn.train_epoch_mc_threads(x, &ds.train_y, batch, scale.train_mc, threads)
                    .loss
            });
            if threads == 1 {
                phase_1t = bnn.phase_seconds();
            }
            Run {
                threads,
                epochs_per_sec: eps_rate,
                losses,
            }
        })
        .collect();

    let allocs_per_step =
        allocations_per_step(&initial, &ds.train_x, &ds.train_y, batch, scale.train_mc);

    let bit_identical = engine.iter().all(|r| {
        r.losses
            .iter()
            .zip(&engine[0].losses)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    assert!(
        bit_identical,
        "engine losses diverged across thread counts: {:?}",
        engine.iter().map(|r| &r.losses).collect::<Vec<_>>()
    );
    let speedup_4t = engine
        .iter()
        .find(|r| r.threads == 4)
        .map(|r| r.epochs_per_sec / baseline_eps)
        .unwrap_or(0.0);

    // Raw ε fill rates: scalar draw loop vs block kernel.
    let mut zigg = ZigguratGrng::new(5);
    let zigg_scalar = fill_rate_msps(&mut zigg, false);
    let zigg_block = fill_rate_msps(&mut zigg, true);
    let mut bm = BoxMullerGrng::new(5);
    let bm_scalar = fill_rate_msps(&mut bm, false);
    let bm_block = fill_rate_msps(&mut bm, true);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{run_scale:?}\",");
    let _ = writeln!(
        json,
        "  \"arch\": [{}],",
        arch.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "  \"train_rows\": {},", ds.train_len());
    let _ = writeln!(json, "  \"batch\": {batch},");
    let _ = writeln!(json, "  \"epochs_measured\": {epochs},");
    let _ = writeln!(
        json,
        "  \"eps_fill_msamples_per_sec\": {{\"ziggurat_scalar\": {zigg_scalar:.1}, \
         \"ziggurat_block\": {zigg_block:.1}, \"boxmuller_scalar\": {bm_scalar:.1}, \
         \"boxmuller_block\": {bm_block:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"baseline_seed_scalar\": {{\"threads\": 1, \"epochs_per_sec\": {:.4}, \
         \"final_loss\": {:.6}}},",
        baseline_eps,
        baseline_losses.last().copied().unwrap_or(f64::NAN)
    );
    json.push_str("  \"engine_block_eps\": [\n");
    for (i, r) in engine.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"epochs_per_sec\": {:.4}, \"final_loss\": {:.6}, \
             \"speedup_vs_seed\": {:.3}}}{}",
            r.threads,
            r.epochs_per_sec,
            r.losses.last().copied().unwrap_or(f64::NAN),
            r.epochs_per_sec / baseline_eps,
            if i + 1 < engine.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup_vs_seed_at_4_threads\": {speedup_4t:.3},");
    // Per-phase breakdown of the 1-thread engine run (seconds summed over
    // every measured step; `steps` is the step count behind the sums).
    let _ = writeln!(
        json,
        "  \"phase_seconds\": {{\"draw\": {:.6}, \"shards\": {:.6}, \"reduce\": {:.6}, \
         \"tail\": {:.6}, \"steps\": {}}},",
        phase_1t.draw, phase_1t.shards, phase_1t.reduce, phase_1t.tail, phase_1t.steps
    );
    let _ = writeln!(json, "  \"allocations_per_step\": {allocs_per_step:.2},");
    // Guard for the PR 7 block-fill fix: the block ε kernel must not be
    // slower than the scalar draw loop again.
    let zigg_guard = zigg_block >= zigg_scalar;
    let _ = writeln!(json, "  \"ziggurat_block_ge_scalar\": {zigg_guard},");
    let _ = writeln!(json, "  \"losses_bit_identical_across_threads\": {bit_identical}");
    json.push_str("}\n");

    write_report("BENCH_train.json", &json);
    println!(
        "seed scalar path     1 thread   {:.3} epochs/s  (loss {:.4})",
        baseline_eps,
        baseline_losses.last().copied().unwrap_or(f64::NAN)
    );
    for r in &engine {
        println!(
            "engine (block eps)  {} thread{}  {:.3} epochs/s  x{:.2} vs seed  (loss {:.4})",
            r.threads,
            if r.threads == 1 { " " } else { "s" },
            r.epochs_per_sec,
            r.epochs_per_sec / baseline_eps,
            r.losses.last().copied().unwrap_or(f64::NAN)
        );
    }
    println!(
        "eps fill Msamples/s: ziggurat scalar {zigg_scalar:.1} block {zigg_block:.1} | \
         box-muller scalar {bm_scalar:.1} block {bm_block:.1}"
    );
    if !zigg_guard {
        println!(
            "WARNING: ziggurat block fill ({zigg_block:.1} Ms/s) is slower than the \
             scalar loop ({zigg_scalar:.1} Ms/s) — block-fill regression is back"
        );
    }
    let total = phase_1t.draw + phase_1t.shards + phase_1t.reduce + phase_1t.tail;
    println!(
        "engine 1-thread phase split over {} steps: draw {:.1}%  shards {:.1}%  \
         reduce {:.1}%  tail {:.1}%",
        phase_1t.steps,
        100.0 * phase_1t.draw / total.max(f64::MIN_POSITIVE),
        100.0 * phase_1t.shards / total.max(f64::MIN_POSITIVE),
        100.0 * phase_1t.reduce / total.max(f64::MIN_POSITIVE),
        100.0 * phase_1t.tail / total.max(f64::MIN_POSITIVE),
    );
    println!("allocations per steady-state step (1 thread): {allocs_per_step:.2}");
}
