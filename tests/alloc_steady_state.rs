//! Zero-allocation contracts, measured with a counting
//! `#[global_allocator]` installed in this test binary:
//!
//! - the `StepArena` contract: once the engine's pools have grown to the
//!   workload's shapes, a steady-state `train_batch_mc_threads` step at
//!   one thread performs **zero** heap allocations;
//! - the quantized forward kernel: once its `ForwardScratch` and output
//!   matrix are warm, `QuantizedBnn::forward_into` performs **zero**
//!   heap allocations;
//! - one quantized Monte Carlo member: once its `McScratch` and output
//!   matrix are warm, `QuantizedBnn::sample_member_into` — ε draws, a
//!   sampled weight set and the forward, in `i16` lanes at `B = 8` —
//!   performs **zero** heap allocations, and the weight set it samples
//!   takes half the bytes of `i32` tables.
//!
//! The counter is process-wide, so every test holds `SERIAL` for its
//! whole run and no concurrent test can pollute another's count.
//!
//! Run explicitly by `ci.sh`.

// `GlobalAlloc` is an `unsafe` trait; this test binary is a sanctioned
// exception to the workspace's `unsafe_code = "deny"` lint, mirroring the
// allocator in `bench_train`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::grng::{StreamFork, ZigguratGrng};
use vibnn::hw::{ForwardScratch, McScratch, QuantizedBnn};
use vibnn::nn::{GaussianInit, Matrix};

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

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_training_step_allocates_nothing() {
    let _serial = serial();
    // A workload that exercises every pool: 48 rows → 3 shards, 3 MC
    // samples, two hidden layers.
    let mut rng = GaussianInit::new(3);
    let mut x = Matrix::zeros(48, 6);
    let mut y = Vec::with_capacity(48);
    for r in 0..48 {
        let mut s = 0.0f32;
        for c in 0..6 {
            let v = rng.next_gaussian() as f32;
            x[(r, c)] = v;
            s += v;
        }
        y.push(usize::from(s > 0.0) + usize::from(s > 1.5));
    }
    let mut bnn = Bnn::new(
        BnnConfig::new(&[6, 24, 16, 3]).with_lr(5e-3).with_kl_weight(1e-3),
        11,
    );

    // Warm-up: the first steps grow the arena pools (and any lazily
    // initialized process state, e.g. the VIBNN_THREADS cache).
    for _ in 0..4 {
        bnn.train_batch_mc_threads(&x, &y, 3, 1);
    }

    let steps = 8;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..steps {
        bnn.train_batch_mc_threads(&x, &y, 3, 1);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state training made {} allocations over {} steps",
        after - before,
        steps
    );
}

#[test]
fn warm_quantized_forward_allocates_nothing() {
    let _serial = serial();
    // The paper's MNIST topology on a 64-row batch: inputs in [0, 1] with
    // about half the pixels zero, as in a digit image.
    let sizes = [784, 200, 200, 10];
    let mut rng = GaussianInit::new(7);
    let mut x = Matrix::zeros(64, sizes[0]);
    for v in x.data_mut() {
        *v = (rng.next_gaussian() as f32).clamp(0.0, 1.0);
    }
    let bnn = Bnn::new(BnnConfig::new(&sizes), 5);
    let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 16));
    let weights = q.sample_weights(&mut ZigguratGrng::new(9));

    let mut scratch = ForwardScratch::default();
    let mut out = Matrix::zeros(0, 0);
    q.forward_into(&x, &weights, &mut scratch, &mut out);
    let warm = out.clone();

    let passes = 4;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..passes {
        q.forward_into(&x, &weights, &mut scratch, &mut out);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm forward_into made {} allocations over {} passes",
        after - before,
        passes
    );
    assert_eq!(
        out.data(),
        warm.data(),
        "repeated passes changed the logits"
    );
}

#[test]
fn warm_monte_carlo_member_allocates_nothing() {
    let _serial = serial();
    // The paper's MNIST topology on a 64-row batch and the one-row
    // interactive model; every member forks its own ε substream, as the
    // serving loops do.
    for (sizes, rows) in [(vec![784, 200, 200, 10], 64), (vec![26, 64, 2], 1)] {
        let mut rng = GaussianInit::new(7);
        let mut x = Matrix::zeros(rows, sizes[0]);
        for v in x.data_mut() {
            *v = (rng.next_gaussian() as f32).clamp(0.0, 1.0);
        }
        let bnn = Bnn::new(BnnConfig::new(&sizes), 5);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x);
        let x = q.quantize_input(&x);
        let eps = ZigguratGrng::new(9);
        let entries: usize = sizes.windows(2).map(|p| p[0] * p[1] + p[1]).sum();
        assert_eq!(
            2 * q.sample_weights(&mut eps.fork(0)).table_bytes(),
            entries * size_of::<i32>(),
            "{sizes:?}: an 8-bit weight set should take half the bytes of i32 tables"
        );
        let mut scratch = McScratch::default();
        let mut out = Matrix::zeros(0, 0);
        q.sample_member_into(&x, &mut eps.fork(0), &mut scratch, &mut out);

        let samples = 4;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for s in 1..=samples {
            q.sample_member_into(&x, &mut eps.fork(s), &mut scratch, &mut out);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{sizes:?}: warm sample_member_into made {} allocations over {} samples",
            after - before,
            samples
        );
        let mut fresh = McScratch::default();
        assert_eq!(
            out.data(),
            q.sample_member(&x, &mut eps.fork(samples), &mut fresh)
                .data(),
            "{sizes:?}: a warm scratch changed the member"
        );
    }
}
