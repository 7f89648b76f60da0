//! Fixed-point arithmetic for the VIBNN datapath.
//!
//! The accelerator's arithmetic units operate on `B`-bit two's-complement
//! fixed-point operands (the paper's bit-length optimization, Section 5.2 /
//! Figure 18, lands on `B = 8`). This crate provides:
//!
//! - [`QFormat`] — a signed Qm.n format descriptor (total bits, fraction
//!   bits) with saturating quantization.
//! - [`MacAccumulator`] — the wide accumulator inside a PE's MAC unit:
//!   products are accumulated at full precision and requantized once.
//! - [`choose_format`] — pick the fraction width for a value range, the
//!   calibration step used when migrating trained (µ, σ) to the FPGA.
//!
//! # Example
//!
//! ```
//! use vibnn_fixed::QFormat;
//! let q = QFormat::new(8, 6); // Q2.6: range [-2, 1.984375]
//! let raw = q.quantize(0.5);
//! assert_eq!(raw, 32);
//! assert_eq!(q.dequantize(raw), 0.5);
//! assert_eq!(q.quantize(100.0), q.max_raw()); // saturates
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A signed fixed-point format with `total` bits, of which `frac` are
/// fractional (Q(total-frac-1).(frac) plus sign).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total: u32,
    frac: u32,
}

impl QFormat {
    /// Creates a format.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= total <= 32` and `frac < total`.
    pub fn new(total: u32, frac: u32) -> Self {
        assert!((2..=32).contains(&total), "total bits must be in 2..=32");
        assert!(frac < total, "fraction bits must leave at least a sign bit");
        Self { total, frac }
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u32 {
        self.total
    }

    /// Fractional bit count.
    pub fn frac_bits(&self) -> u32 {
        self.frac
    }

    /// Scale factor `2^frac`.
    pub fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac)
    }

    /// Largest representable raw value (`2^(total-1) - 1`).
    pub fn max_raw(&self) -> i32 {
        ((1i64 << (self.total - 1)) - 1) as i32
    }

    /// Smallest representable raw value (`-2^(total-1)`).
    pub fn min_raw(&self) -> i32 {
        (-(1i64 << (self.total - 1))) as i32
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f64 {
        f64::from(self.max_raw()) / self.scale()
    }

    /// Smallest representable real value.
    pub fn min_value(&self) -> f64 {
        f64::from(self.min_raw()) / self.scale()
    }

    /// One least-significant-bit step.
    pub fn lsb(&self) -> f64 {
        1.0 / self.scale()
    }

    /// Quantizes with round-to-nearest (ties away from zero) and
    /// saturation. NaN maps to zero.
    pub fn quantize(&self, x: f64) -> i32 {
        if x.is_nan() {
            return 0;
        }
        let scaled = x * self.scale();
        let rounded = scaled.round();
        let clamped = rounded
            .max(f64::from(self.min_raw()))
            .min(f64::from(self.max_raw()));
        clamped as i32
    }

    /// Converts a raw value back to real.
    pub fn dequantize(&self, raw: i32) -> f64 {
        f64::from(raw) / self.scale()
    }

    /// Quantizes an `f32` (convenience for NN parameters).
    pub fn quantize_f32(&self, x: f32) -> i32 {
        self.quantize(f64::from(x))
    }

    /// Saturates an arbitrary raw `i64` into this format's raw range.
    pub fn saturate(&self, raw: i64) -> i32 {
        raw.clamp(i64::from(self.min_raw()), i64::from(self.max_raw())) as i32
    }

    /// Re-scales a raw value with `from_frac` fractional bits into this
    /// format — the requantization at the end of a MAC. Rounds to nearest
    /// with **ties away from zero**, matching [`Self::quantize`]'s
    /// documented behaviour (the old `(raw + half) >> shift` rounded
    /// negative ties toward +∞, a 1-LSB disagreement on exact half-LSB
    /// negative values), and saturates. The arithmetic is carried out in
    /// `i128`, so neither the rounding bias addition nor an up-shift of a
    /// large accumulator can overflow.
    pub fn requantize(&self, raw: i64, from_frac: u32) -> i32 {
        let shift = i64::from(from_frac) - i64::from(self.frac);
        let adjusted: i128 = if shift > 127 {
            // |raw| < 2^63 ≤ half: everything rounds to zero.
            0
        } else if shift > 0 {
            let half = 1i128 << (shift - 1);
            let wide = i128::from(raw);
            if wide >= 0 {
                (wide + half) >> shift
            } else {
                -((-wide + half) >> shift)
            }
        } else {
            // Up-shift: frac < 32 bounds the shift amount well below the
            // i128 headroom over any i64 accumulator.
            i128::from(raw) << (-shift)
        };
        adjusted
            .clamp(i128::from(self.min_raw()), i128::from(self.max_raw())) as i32
    }
}

/// Picks the Q format for `total` bits that covers `[-max_abs, max_abs]`
/// with the most fraction bits possible.
///
/// Coverage uses the **asymmetric negative bound** of two's complement:
/// a format is accepted when `min_value() <= -max_abs`, i.e. when
/// `2^int_bits >= max_abs`. The positive endpoint `+max_abs` may then
/// saturate to `max_value() = 2^int_bits − lsb`, at most one LSB of
/// error — the right trade for calibration, since the alternative costs a
/// full fraction bit on *every* value. (The old `max_value() >= max_abs`
/// test hit exactly this on power-of-two ranges: `max_abs = 2.0` picked
/// Q2.5 even though Q1.6's `min_value = -2.0` covers the range, silently
/// halving resolution in the paper's B=8 sweep.)
///
/// # Panics
///
/// Panics if `max_abs` is not finite and positive.
///
/// # Example
///
/// ```
/// use vibnn_fixed::choose_format;
/// let q = choose_format(8, 1.5); // needs 1 integer bit -> Q1.6
/// assert_eq!(q.frac_bits(), 6);
/// assert!(q.max_value() >= 1.5);
/// let q2 = choose_format(8, 2.0); // exact power of two: still Q1.6
/// assert_eq!(q2.frac_bits(), 6);
/// assert_eq!(q2.min_value(), -2.0);
/// ```
pub fn choose_format(total: u32, max_abs: f64) -> QFormat {
    assert!(
        max_abs.is_finite() && max_abs > 0.0,
        "max_abs must be finite and positive"
    );
    let mut int_bits = 0u32;
    while int_bits < total - 1 {
        let frac = total - 1 - int_bits;
        let q = QFormat::new(total, frac);
        if q.min_value() <= -max_abs {
            return q;
        }
        int_bits += 1;
    }
    QFormat::new(total, 0)
}

/// The wide accumulator inside a PE's MAC unit: sums raw products of two
/// fixed-point operands exactly, then requantizes once at readout
/// (mirrors the adder-tree + accumulator structure of Figure 11).
///
/// # Example
///
/// ```
/// use vibnn_fixed::{MacAccumulator, QFormat};
/// let q = QFormat::new(8, 6);
/// let mut acc = MacAccumulator::new();
/// acc.mac(q.quantize(0.5), q.quantize(0.25));
/// acc.mac(q.quantize(1.0), q.quantize(1.0));
/// // Products carry 12 fraction bits (6 + 6).
/// let out = q.requantize(acc.raw(), 12);
/// assert!((q.dequantize(out) - 1.125).abs() <= q.lsb());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacAccumulator {
    sum: i64,
    ops: u32,
}

impl MacAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `a * b` at full precision. The 64-bit sum wraps
    /// modulo 2^64 in every build profile, as release builds always did
    /// (it is exact while the terms' magnitudes sum below 2^63);
    /// wrapping addition is associative, so any summation order gives
    /// the same bits.
    pub fn mac(&mut self, a_raw: i32, b_raw: i32) {
        self.sum = self.sum.wrapping_add(i64::from(a_raw) * i64::from(b_raw));
        self.ops += 1;
    }

    /// Adds a raw value already at the accumulator's fraction scale
    /// (wrapping, as [`Self::mac`]).
    pub fn add_raw(&mut self, raw: i64) {
        self.sum = self.sum.wrapping_add(raw);
    }

    /// Raw accumulated value.
    pub fn raw(&self) -> i64 {
        self.sum
    }

    /// Number of MAC operations performed.
    pub fn ops(&self) -> u32 {
        self.ops
    }

    /// Clears the accumulator.
    pub fn reset(&mut self) {
        self.sum = 0;
        self.ops = 0;
    }
}

/// Fixed-point ReLU on a raw value.
pub fn relu_raw(raw: i32) -> i32 {
    raw.max(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_within_half_lsb() {
        let q = QFormat::new(8, 5);
        for i in -100..=100 {
            let x = f64::from(i) / 33.0;
            if x.abs() < q.max_value() {
                let err = (q.dequantize(q.quantize(x)) - x).abs();
                assert!(err <= q.lsb() / 2.0 + 1e-12, "x={x} err={err}");
            }
        }
    }

    #[test]
    fn saturation_at_bounds() {
        let q = QFormat::new(8, 6);
        assert_eq!(q.quantize(10.0), 127);
        assert_eq!(q.quantize(-10.0), -128);
        assert_eq!(q.quantize(f64::INFINITY), 127);
        assert_eq!(q.quantize(f64::NEG_INFINITY), -128);
        assert_eq!(q.quantize(f64::NAN), 0);
    }

    #[test]
    fn requantize_rounds_correctly() {
        let out = QFormat::new(8, 4);
        // 12 frac bits -> 4: shift by 8 with round-to-nearest.
        assert_eq!(out.requantize(256, 12), 1); // exactly 1 LSB
        assert_eq!(out.requantize(128, 12), 1); // half rounds up
        assert_eq!(out.requantize(127, 12), 0);
        assert_eq!(out.requantize(-129, 12), -1);
    }

    #[test]
    fn requantize_up_shifts_left() {
        let out = QFormat::new(16, 10);
        assert_eq!(out.requantize(3, 2), 3 << 8);
    }

    #[test]
    fn requantize_negative_ties_round_away_from_zero() {
        let out = QFormat::new(8, 4);
        // Half-LSB ties (shift = 8, half = 128) must mirror the positive
        // side: quantize's documented ties-away-from-zero.
        assert_eq!(out.requantize(128, 12), 1);
        assert_eq!(out.requantize(-128, 12), -1); // was 0 before the fix
        assert_eq!(out.requantize(384, 12), 2);
        assert_eq!(out.requantize(-384, 12), -2); // was -1 before the fix
        // Non-ties are unchanged in both directions.
        assert_eq!(out.requantize(-127, 12), 0);
        assert_eq!(out.requantize(-129, 12), -1);
        // Exact odd symmetry everywhere saturation is not in play.
        for raw in 0..2000i64 {
            assert_eq!(
                out.requantize(-raw, 12),
                -out.requantize(raw, 12),
                "asymmetric rounding at ±{raw}"
            );
        }
    }

    #[test]
    fn requantize_mirrors_quantize_on_tie_values() {
        // A raw value at k + 0.5 LSB of the target format must land on
        // the same integer quantize() picks for the equivalent real value.
        let out = QFormat::new(8, 4);
        for k in [-5i64, -2, -1, 0, 1, 2, 5] {
            let raw_12 = k * 256 + if k < 0 { -128 } else { 128 };
            let real = raw_12 as f64 / 4096.0;
            assert_eq!(
                out.requantize(raw_12, 12),
                out.quantize(real),
                "tie at {real}"
            );
        }
    }

    #[test]
    fn requantize_up_shift_saturates_instead_of_overflowing() {
        let out = QFormat::new(8, 6);
        // A huge accumulator up-shifted by 6 bits overflowed i64 before;
        // now it saturates cleanly.
        assert_eq!(out.requantize(i64::MAX / 2, 0), out.max_raw());
        assert_eq!(out.requantize(i64::MIN / 2, 0), out.min_raw());
        // Rounding-bias addition near i64::MAX also stays exact.
        assert_eq!(out.requantize(i64::MAX, 40), out.max_raw());
        assert_eq!(out.requantize(i64::MIN, 40), out.min_raw());
        // Absurd down-shifts collapse to zero rather than misbehaving.
        assert_eq!(out.requantize(i64::MAX, u32::MAX), 0);
    }

    #[test]
    fn mac_matches_float_within_tolerance() {
        let q = QFormat::new(8, 6);
        let xs = [0.3f64, -0.7, 0.9, 0.2, -0.1];
        let ws = [0.5f64, 0.25, -0.5, 1.0, 0.75];
        let mut acc = MacAccumulator::new();
        let mut float_dot = 0.0;
        for (x, w) in xs.iter().zip(&ws) {
            acc.mac(q.quantize(*x), q.quantize(*w));
            float_dot += x * w;
        }
        let out = q.requantize(acc.raw(), 12);
        let got = q.dequantize(out);
        assert!(
            (got - float_dot).abs() < 0.05,
            "fixed {got} vs float {float_dot}"
        );
        assert_eq!(acc.ops(), 5);
    }

    #[test]
    fn choose_format_covers_range() {
        for &(bits, max) in &[(8u32, 0.9f64), (8, 1.5), (8, 3.2), (16, 10.0), (4, 0.4)] {
            let q = choose_format(bits, max);
            assert!(q.max_value() >= max, "bits={bits} max={max} q={q:?}");
            assert_eq!(q.total_bits(), bits);
        }
    }

    #[test]
    fn choose_format_maximizes_precision() {
        // max_abs = 0.9 fits in Q0.7 for 8 bits (max 0.9921875).
        let q = choose_format(8, 0.9);
        assert_eq!(q.frac_bits(), 7);
    }

    #[test]
    fn choose_format_keeps_fraction_bit_on_power_of_two_ranges() {
        // Exact powers of two are covered by the asymmetric negative
        // bound: only +max_abs saturates, by at most one LSB.
        for &(bits, max, frac) in &[
            (8u32, 1.0f64, 7u32), // Q0.7, min -1.0 (was Q1.6 before)
            (8, 2.0, 6),          // Q1.6, min -2.0 (was Q2.5 before)
            (8, 4.0, 5),
            (16, 8.0, 12),
            (4, 1.0, 3), // Q0.3, min -1.0 (was Q1.2 before)
        ] {
            let q = choose_format(bits, max);
            assert_eq!(q.frac_bits(), frac, "bits={bits} max={max} q={q:?}");
            assert!(q.min_value() <= -max);
            // The positive endpoint loses at most one LSB to saturation.
            assert!(max - q.max_value() <= q.lsb() + 1e-12);
            assert_eq!(f64::from(q.quantize(max)), f64::from(q.max_raw()));
        }
        // Just past a power of two the next integer bit is required.
        assert_eq!(choose_format(8, 2.0 + 1e-9).frac_bits(), 5);
    }

    #[test]
    fn relu_raw_clamps() {
        assert_eq!(relu_raw(-5), 0);
        assert_eq!(relu_raw(17), 17);
    }

    #[test]
    fn lower_bit_widths_lose_precision_monotonically() {
        // The mechanism behind Figure 18: quantization error grows as B
        // shrinks.
        let value = 0.337;
        let mut last_err = 0.0;
        for bits in (3..=12).rev() {
            let q = choose_format(bits, 1.0);
            let err = (q.dequantize(q.quantize(value)) - value).abs();
            assert!(err >= last_err - 1e-12, "bits={bits}");
            last_err = err;
        }
    }

    #[test]
    #[should_panic(expected = "total bits must be in 2..=32")]
    fn oversized_format_panics() {
        let _ = QFormat::new(33, 2);
    }

    #[test]
    #[should_panic(expected = "at least a sign bit")]
    fn all_frac_panics() {
        let _ = QFormat::new(8, 8);
    }

    #[test]
    fn add_raw_and_reset() {
        let mut acc = MacAccumulator::new();
        acc.add_raw(100);
        acc.mac(2, 3);
        assert_eq!(acc.raw(), 106);
        acc.reset();
        assert_eq!(acc.raw(), 0);
        assert_eq!(acc.ops(), 0);
    }
}
