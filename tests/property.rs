//! Property-based tests (proptest) on the core invariants.

// `GlobalAlloc` is an `unsafe` trait; like `tests/alloc_steady_state.rs`,
// this test binary installs a measuring allocator (here: the largest
// single allocation per thread, for the hostile-frame decoder test) and
// is a sanctioned exception to the workspace's `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use proptest::prelude::*;
use vibnn::bnn::checkpoint::{
    read_frame, write_frame, CheckpointError, WireWriter, MAX_FRAME_LEN,
};
use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::datasets::{DriftStream, SynthSpec};
use vibnn::fixed::{choose_format, MacAccumulator, QFormat};
use vibnn::grng::WallaceUnit;
use vibnn::hw::{AcceleratorConfig, Schedule};
use vibnn::ingest::{decode_reply, decode_request, encode_reply, encode_request};
use vibnn::ingest::{Metric, MetricValue, MetricsFrame, Reply, Request, WireError};
use vibnn::online::{OnlineConfig, OnlineRuntime, KIND_ONLINE};
use vibnn::rng::{BitVec, CircularLfsr, RlfLogic, RlfMode, SplitMix64};
use vibnn::serve::ServeResult;
use vibnn::{Priority, VibnnError};

/// Records the largest single allocation the current thread requests.
struct PeakAlloc;

thread_local! {
    static PEAK_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: allocations during thread teardown are not measured.
    let _ = PEAK_ALLOC.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; recording a size touches
// only a const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK_ALLOC.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK_ALLOC.with(Cell::get))
}

/// One generated metric: value kind (0 count, 1 gauge, 2 buckets), the
/// count, the gauge, the number of labels, and the buckets.
type RawMetric = (u8, u64, f64, usize, Vec<u64>);

fn frame_from(raw: Vec<RawMetric>) -> MetricsFrame {
    MetricsFrame(
        raw.into_iter()
            .enumerate()
            .map(|(i, (kind, count, gauge, labels, buckets))| Metric {
                name: format!("metric_{i}"),
                labels: (0..labels)
                    .map(|l| (format!("key_{l}"), format!("värde_{count:x}")))
                    .collect(),
                value: match kind {
                    0 => MetricValue::Count(count),
                    1 => MetricValue::Gauge(gauge),
                    _ => MetricValue::Buckets(buckets),
                },
            })
            .collect(),
    )
}

fn lane(code: u8) -> Priority {
    if code == 0 {
        Priority::Interactive
    } else {
        Priority::Batch
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The RAM-based linear feedback logic is bit-exact to the shifting
    /// circular LFSR for any non-zero seed (paper Section 4.1.2's claim).
    #[test]
    fn rlf_equals_circular_lfsr(seed in 1u64.., steps in 1usize..300) {
        let mut src = SplitMix64::new(seed);
        let bits = BitVec::random(255, &mut src);
        let mut rlf = RlfLogic::new(bits, RlfMode::Simple);
        let mut reference = rlf.to_circular();
        for _ in 0..steps {
            prop_assert_eq!(rlf.step(), reference.step());
        }
        prop_assert_eq!(rlf.state_from_head(), reference.state().clone());
    }

    /// One combined RLF step is exactly two simple steps (eq. 12 = 2x eq. 11).
    #[test]
    fn combined_equals_two_simple(seed in 1u64.., steps in 1usize..200) {
        let mut src = SplitMix64::new(seed);
        let bits = BitVec::random(255, &mut src);
        let mut combined = RlfLogic::new(bits.clone(), RlfMode::Combined);
        let mut twice = RlfLogic::new(bits, RlfMode::Simple);
        for _ in 0..steps {
            let a = combined.step();
            twice.step();
            let b = twice.step();
            prop_assert_eq!(a, b);
        }
    }

    /// The circular LFSR never reaches the all-zero state and its popcount
    /// changes by at most the tap count per step.
    #[test]
    fn lfsr_never_zero_and_bounded_delta(seed in 1u64.., steps in 1usize..500) {
        let mut src = SplitMix64::new(seed);
        let mut lfsr = CircularLfsr::random(255, &[250, 252, 253], &mut src);
        let mut prev = lfsr.state().count_ones() as i64;
        for _ in 0..steps {
            let c = i64::from(lfsr.step());
            prop_assert!(c > 0, "reached all-zero state");
            prop_assert!((c - prev).abs() <= 3);
            prev = c;
        }
    }

    /// The Wallace 4x4 transform preserves the sum of squares exactly
    /// (H/2 is orthogonal), for any finite quad.
    #[test]
    fn wallace_transform_preserves_energy(
        a in -100.0f64..100.0, b in -100.0f64..100.0,
        c in -100.0f64..100.0, d in -100.0f64..100.0,
        loops in 1u32..16,
    ) {
        let x = [a, b, c, d];
        let y = WallaceUnit::transform_loops(x, loops);
        let before: f64 = x.iter().map(|v| v * v).sum();
        let after: f64 = y.iter().map(|v| v * v).sum();
        prop_assert!((before - after).abs() <= 1e-9 * before.max(1.0));
    }

    /// Quantize/dequantize round-trips within half an LSB for in-range
    /// values, and saturates (not wraps) out-of-range values.
    #[test]
    fn fixed_point_roundtrip_and_saturation(
        total in 3u32..=16,
        x in -1000.0f64..1000.0,
    ) {
        let fmt = QFormat::new(total, total / 2);
        let raw = fmt.quantize(x);
        prop_assert!(raw >= fmt.min_raw() && raw <= fmt.max_raw());
        let back = fmt.dequantize(raw);
        if x.abs() < fmt.max_value() {
            prop_assert!((back - x).abs() <= fmt.lsb() / 2.0 + 1e-12);
        } else {
            // Saturation: sign preserved, magnitude clamped to the rail.
            prop_assert!(back.signum() == x.signum());
        }
    }

    /// MAC accumulation is exact: matches i128 arithmetic for any operand
    /// sequence.
    #[test]
    fn mac_accumulator_is_exact(pairs in prop::collection::vec((-128i32..=127, -128i32..=127), 1..64)) {
        let mut acc = MacAccumulator::new();
        let mut expect: i128 = 0;
        for &(a, b) in &pairs {
            acc.mac(a, b);
            expect += i128::from(a) * i128::from(b);
        }
        prop_assert_eq!(i128::from(acc.raw()), expect);
        prop_assert_eq!(acc.ops() as usize, pairs.len());
    }

    /// choose_format always covers the requested range with the maximum
    /// fraction width that does so.
    #[test]
    fn choose_format_covers_and_is_tight(total in 3u32..=16, max in 0.01f64..100.0) {
        let fmt = choose_format(total, max);
        let representable = f64::from((1i64 << (total - 1)) as i32 - 1);
        if max <= representable {
            prop_assert!(fmt.max_value() >= max);
            // One more fraction bit would no longer cover the range.
            if fmt.frac_bits() + 1 < total {
                let tighter = QFormat::new(total, fmt.frac_bits() + 1);
                prop_assert!(tighter.max_value() < max);
            }
        } else {
            // Out-of-gamut ranges fall back to the widest integer format.
            prop_assert_eq!(fmt.frac_bits(), 0);
        }
    }

    /// Schedule cycles are monotone in layer width and exactly linear in
    /// MC samples, for any valid geometry.
    #[test]
    fn schedule_monotonicity(
        t in 1usize..8,
        n_pow in 1u32..4,
        width in 8usize..256,
        mc in 1usize..8,
    ) {
        let n = 1usize << n_pow; // 2,4,8
        let cfg = AcceleratorConfig {
            pe_sets: t,
            pes_per_set: n,
            pe_inputs: n,
            max_word_size: 8192,
            mc_samples: mc,
            ..AcceleratorConfig::paper()
        };
        let base = Schedule::new(&cfg, &[width, width, 4]);
        let wider = Schedule::new(&cfg, &[width * 2, width, 4]);
        prop_assert!(wider.cycles_per_sample() >= base.cycles_per_sample());
        prop_assert_eq!(base.cycles_per_image(), base.cycles_per_sample() * mc as u64);
        prop_assert!(base.utilization() > 0.0 && base.utilization() <= 1.0);
    }

    /// Stratified fractions keep per-class representation for any
    /// fraction.
    #[test]
    fn stratified_fraction_keeps_classes(frac in 0.01f64..1.0, seed in 0u64..1000) {
        use vibnn::nn::Matrix;
        let n = 80;
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for r in 0..n {
            x[(r, 0)] = r as f32;
            y.push(r % 4);
        }
        let (sx, sy) = vibnn::datasets::stratified_fraction(&x, &y, frac, 4, seed);
        prop_assert_eq!(sx.rows(), sy.len());
        let mut seen = [false; 4];
        for &l in &sy { seen[l] = true; }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

// Wire-protocol invariants: the frame layer and the ingest codecs must
// round-trip every value exactly and must never panic on hostile bytes
// (the fuzz-shaped counterpart to `tests/ingest_protocol.rs`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `write_frame` → `read_frame` round-trips any payload, back to
    /// back, with a clean `None` EOF exactly at the stream boundary.
    #[test]
    fn frame_codec_round_trips(payload in prop::collection::vec(0u8.., 1usize..600)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cur = Cursor::new(buf);
        prop_assert_eq!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().unwrap(), payload.clone());
        prop_assert_eq!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().unwrap(), payload);
        prop_assert!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().is_none());
    }

    /// Arbitrary bytes fed to the frame reader and both ingest decoders
    /// return a typed error (or a valid value) — they never panic and
    /// the frame reader always makes progress.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(0u8.., 0usize..300),
    ) {
        let mut cur = Cursor::new(bytes.clone());
        while let Ok(Some(frame)) = read_frame(&mut cur, MAX_FRAME_LEN) {
            // Any frame that parses is fed onward, like the server does.
            let _ = decode_request(&frame);
            let _ = decode_reply(&frame);
        }
        let _ = decode_request(&bytes);
        let _ = decode_reply(&bytes);
    }

    /// Predict requests round-trip the codec exactly for any tag, lane,
    /// deadline, and feature row (f32 bits preserved).
    #[test]
    fn predict_request_codec_round_trips(
        tag in 0u64..,
        lane_code in 0u8..2,
        deadline_micros in 0u64..,
        features in prop::collection::vec(-1e6f32..1e6, 0usize..40),
    ) {
        let req = Request::Predict {
            tag,
            priority: lane(lane_code),
            deadline_micros,
            features,
        };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    /// Batch requests round-trip with the row-major layout and row width
    /// intact, including the empty batch.
    #[test]
    fn batch_request_codec_round_trips(
        tag in 0u64..,
        lane_code in 0u8..2,
        rows in 0usize..6,
        dim in 1usize..8,
        seed in 0u64..,
    ) {
        let features: Vec<f32> = (0..rows * dim)
            .map(|i| (seed.wrapping_add(i as u64) % 4001) as f32 * 0.25 - 500.0)
            .collect();
        let req = Request::PredictBatch {
            tag,
            priority: lane(lane_code),
            deadline_micros: seed,
            dim,
            features,
        };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    /// Served predictions round-trip the reply codec bit-exactly —
    /// f32/f64 travel as raw bits, so the wire cannot perturb them.
    #[test]
    fn predict_reply_codec_round_trips(
        tag in 0u64..,
        id in 0u64..,
        p0 in 0.0f32..1.0,
        entropy in 0.0f64..2.0,
        mc_std in 0.0f64..1.0,
        samples_used in 1u32..1025,
    ) {
        let result = ServeResult {
            id,
            proba: vec![p0, 1.0 - p0],
            argmax: usize::from(p0 < 0.5),
            entropy,
            mc_std,
            samples_used,
        };
        let single = Reply::Predict { tag, result: result.clone() };
        prop_assert_eq!(decode_reply(&encode_reply(&single)).unwrap(), single);
        // Batch replies carry per-row outcomes; Ok and Err rows mix.
        let batch = Reply::PredictBatch {
            tag,
            rows: vec![
                Ok(result),
                Err(WireError::QueueFull { depth: id, capacity: tag }),
            ],
        };
        prop_assert_eq!(decode_reply(&encode_reply(&batch)).unwrap(), batch);
    }

    /// Metrics frames — counts, gauges and bucket vectors, with or
    /// without labels — round-trip the reply codec exactly (gauges
    /// travel as raw f64 bits).
    #[test]
    fn metrics_reply_codec_round_trips(
        tag in 0u64..,
        raw in prop::collection::vec(
            (0u8..3, 0u64.., -1e12f64..1e12, 0usize..3, prop::collection::vec(0u64.., 0usize..12)),
            0usize..24,
        ),
    ) {
        let reply = Reply::Metrics { tag, metrics: frame_from(raw) };
        prop_assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
    }

    /// Every typed wire-error variant survives the reply codec with its
    /// payload intact.
    #[test]
    fn error_reply_codec_round_trips(
        tag in 0u64..,
        depth in 0u64..,
        capacity in 0u64..,
        expected in 0u64..,
        got in 0u64..,
        samples_used in 0u32..,
        entropy_milli in 0u32..,
    ) {
        for error in [
            WireError::QueueFull { depth, capacity },
            WireError::DeadlineExceeded,
            WireError::EngineStopped,
            WireError::ShapeMismatch { expected, got },
            WireError::Protocol("torn frame header".to_owned()),
            WireError::Other("replica thread failure".to_owned()),
            WireError::Abstained {
                samples_used: u64::from(samples_used),
                entropy_milli: u64::from(entropy_milli),
            },
            WireError::BudgetExceeded {
                predicted_micros: expected,
                remaining_micros: got,
            },
        ] {
            let reply = Reply::Error { tag, error };
            prop_assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
        }
    }
}

// Hostile Metrics replies: every truncation and every single-bit flip of
// a valid frame. Each one costs a decode per byte and per bit, so this
// block runs fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A valid Metrics reply cut at any offset fails with a typed
    /// error; with any one bit flipped it decodes to a typed error or a
    /// valid reply. Neither ever panics, and no decode makes an
    /// allocation larger than 8 bytes per input byte (plus room for an
    /// error message) — a length field is checked against the unread
    /// bytes before anything is reserved for it.
    #[test]
    fn hostile_metrics_replies_fail_typed_and_bounded(
        tag in 0u64..,
        raw in prop::collection::vec(
            (0u8..3, 0u64.., -1e12f64..1e12, 0usize..3, prop::collection::vec(0u64.., 0usize..6)),
            1usize..8,
        ),
    ) {
        let bytes = encode_reply(&Reply::Metrics { tag, metrics: frame_from(raw) });
        let bound = |len: usize| 8 * len + 256;
        for cut in 0..bytes.len() {
            let (result, peak) = peak_allocation(|| decode_reply(&bytes[..cut]));
            prop_assert!(
                matches!(result, Err(VibnnError::Protocol(_))),
                "cut at {}: {:?}", cut, result
            );
            prop_assert!(peak <= bound(cut), "cut at {}: allocated {} bytes", cut, peak);
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (result, peak) = peak_allocation(|| decode_reply(&flipped));
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(peak <= bound(bytes.len()), "bit {}: allocated {} bytes", bit, peak);
            match result {
                Err(VibnnError::Protocol(_)) => {}
                Ok(reply) => prop_assert!(decode_reply(&encode_reply(&reply)).is_ok()),
                Err(other) => prop_assert!(false, "bit {}: untyped error {:?}", bit, other),
            }
        }
    }
}

// Hostile length fields in checkpoint files. Each is refused with a typed
// error, and no refused load makes an allocation larger than 8 bytes per
// input byte (plus room for an error message).

/// `bytes` with the little-endian `u32` at `at` replaced by `value`.
fn patch_u32(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    out
}

#[test]
fn hostile_trainer_lengths_fail_typed_and_bounded() {
    let sizes = [4usize, 6, 3];
    let valid = Bnn::new(BnnConfig::new(&sizes), 9).to_bytes();
    // Envelope, size header, config, counters, tensors, Adam rate and step.
    let tensors: usize = sizes.windows(2).map(|p| 8 * (p[0] * p[1] + p[1])).sum();
    let slots_at = 7 + 4 * (sizes.len() + 1) + 20 + 32 + tensors + 8;
    assert_eq!(valid[slots_at..slots_at + 4], 8u32.to_le_bytes(), "4 slots per layer");
    for (field, at, value) in [
        ("layer count", 7, 1 << 16),
        ("layer size", 15, u32::MAX),
        ("Adam slot count", slots_at, u32::MAX),
    ] {
        let bytes = patch_u32(&valid, at, value);
        let (result, peak) = peak_allocation(|| Bnn::from_bytes(&bytes));
        assert!(
            matches!(result, Err(CheckpointError::Corrupt(_) | CheckpointError::Truncated)),
            "{field}: {result:?}"
        );
        assert!(peak <= 8 * bytes.len() + 256, "{field}: allocated {peak} bytes");
    }
}

#[test]
fn hostile_online_state_lengths_fail_typed_and_bounded() {
    let dir = std::env::temp_dir().join(format!("vibnn_property_online_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = OnlineConfig::new(&dir);
    for (field, counts) in [
        ("trigger window", [u32::MAX, 0, 0]),
        ("event count", [0, u32::MAX, 0]),
        ("round count", [0, 0, u32::MAX]),
    ] {
        // Nothing done, nothing in flight, the three counts, no trainer.
        let mut w = WireWriter::new(KIND_ONLINE);
        w.u64(0);
        w.u64(0);
        w.u8(0);
        w.u64(0);
        for count in counts {
            w.u32(count);
        }
        w.u32(0);
        let bytes = w.into_bytes();
        std::fs::write(&cfg.state_path, &bytes).unwrap();
        let (cfg, stream) = (cfg.clone(), DriftStream::new(SynthSpec::new("hostile", 4, 2, 8, 8), 1));
        let (result, peak) = peak_allocation(|| OnlineRuntime::resume(cfg, stream).map(drop));
        assert!(
            matches!(result, Err(VibnnError::Checkpoint(CheckpointError::Corrupt(_)))),
            "{field}: {result:?}"
        );
        assert!(peak <= 8 * bytes.len() + 256, "{field}: allocated {peak} bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}
