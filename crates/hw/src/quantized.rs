//! The functional fixed-point datapath: exactly the arithmetic the
//! accelerator performs, vectorized for fast accuracy evaluation.
//!
//! Semantics (paper Sections 5.1–5.3):
//!
//! 1. The weight generator computes `w = µ + σ·ε` in B-bit fixed point:
//!    `σ_q · ε_q` is requantized to the weight format and added to `µ_q`
//!    with saturation.
//! 2. Each PE multiplies B-bit activations by B-bit weights into a wide
//!    accumulator (no intermediate rounding — the adder tree of Figure 11),
//!    adds the bias, requantizes once to the activation format, and applies
//!    ReLU.
//!
//!    On the host, the storage follows the formats. When
//!    `act_bits + w_bits ≤ 16` (the default `B = 8`), every activation,
//!    weight and product `a·w` fits `i16`, so the sampled weight tables and
//!    the activation tables are `i16` and each product is formed in an
//!    `i16` lane before it joins the `i32` (or, for very wide layers,
//!    `i64`) accumulator. Wider formats keep `i32` tables. A batch is
//!    quantized once ([`QuantizedBnn::quantize_input`]) and read by every
//!    Monte Carlo member of it.
//! 3. The final layer's logits are dequantized; softmax and Monte Carlo
//!    averaging (equation 6) happen at full precision on the host, as they
//!    would on the CPU collecting accelerator outputs.
//!
//! The host-side Monte Carlo mean goes through `vibnn_bnn::reduce_mean`
//! and therefore inherits the workspace-wide fixed-lane accumulation
//! contract (`vibnn_nn::LANES` partial-sum chains, element `k` in lane
//! `k % LANES`, lanes folded in ascending order). The fixed-point MACs
//! inside the datapath are integer arithmetic — exact and associative —
//! so quantized forward passes themselves are unaffected by the lane
//! rule; only the float averaging step follows it.

use std::borrow::Cow;
use std::mem::size_of;

use vibnn_bnn::{parallel_fork_map, reduce_mean, BnnParams};
use vibnn_fixed::{choose_format, QFormat};
use vibnn_grng::{GaussianSource, StreamFork};
use vibnn_nn::{softmax_rows, Matrix};

/// Fixed-point formats for every signal class in the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizationSpec {
    /// Operand bit length `B`.
    pub bit_len: u32,
    /// Format for weights (µ and sampled w).
    pub weight_fmt: QFormat,
    /// Format for σ values.
    pub sigma_fmt: QFormat,
    /// Format for activations (inputs and layer outputs).
    pub act_fmt: QFormat,
    /// Format for the unit Gaussian ε samples.
    pub eps_fmt: QFormat,
}

impl QuantizationSpec {
    /// Calibrates formats for `params` at `bit_len` bits.
    ///
    /// Weight range covers `max|µ| + 2·max σ` (rarer ε excursions are
    /// absorbed by saturation); ε gets ±4 range; activations are
    /// calibrated from `act_max` (the largest |activation| observed on a
    /// float calibration pass — see [`QuantizedBnn::from_params`]).
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` is outside `2..=32` or `act_max <= 0`.
    pub fn calibrate(params: &BnnParams, bit_len: u32, act_max: f64) -> Self {
        assert!(act_max > 0.0, "activation range must be positive");
        let mut mu_max = 0.0f32;
        let mut sigma_max = 0.0f32;
        for w in &params.weight_mu {
            for &v in w.data() {
                mu_max = mu_max.max(v.abs());
            }
        }
        for s in &params.weight_sigma {
            for &v in s.data() {
                sigma_max = sigma_max.max(v.abs());
            }
        }
        for b in &params.bias_mu {
            for &v in b {
                mu_max = mu_max.max(v.abs());
            }
        }
        for b in &params.bias_sigma {
            for &v in b {
                sigma_max = sigma_max.max(v.abs());
            }
        }
        let w_range = f64::from(mu_max) + 2.0 * f64::from(sigma_max);
        Self {
            bit_len,
            weight_fmt: choose_format(bit_len, w_range.max(1e-3)),
            sigma_fmt: choose_format(bit_len, f64::from(sigma_max).max(1e-3)),
            act_fmt: choose_format(bit_len, act_max),
            eps_fmt: choose_format(bit_len, 4.0),
        }
    }
}

/// One quantized layer: integer µ/σ tables plus biases.
#[derive(Debug, Clone)]
struct QLayer {
    in_dim: usize,
    out_dim: usize,
    mu: Vec<i32>,
    sigma: Vec<i32>,
    bias_mu: Vec<i32>,
    bias_sigma: Vec<i32>,
}

/// Whether a format pair's activations, weights and every product `a·w`
/// fit `i16`. Each factor is at most `2^(bits − 1)` in magnitude, so at
/// `act_bits + w_bits ≤ 16` a product is at most `2^14`: the default
/// `B = 8` qualifies, while a 9-bit and an 8-bit format do not, since
/// `(−2^8)·(−2^7) = 2^15` wraps in `i16`.
fn narrow_lanes(act_fmt: QFormat, weight_fmt: QFormat) -> bool {
    act_fmt.total_bits() + weight_fmt.total_bits() <= 16
}

/// The storage of the forward's activation and weight tables: `i16` for
/// a format pair under [`narrow_lanes`], `i32` otherwise.
trait Lane: Copy + Default + PartialEq {
    /// A raw value of a format this storage is used for.
    fn from_raw(raw: i32) -> Self;
    /// The raw value.
    fn raw(self) -> i32;
    /// `a·w`, for an accumulator proven to hold every term in `i32`.
    fn product(self, w: Self) -> i32;
}

impl Lane for i16 {
    fn from_raw(raw: i32) -> Self {
        // Lossless: a format under `narrow_lanes` has at most 14 bits.
        raw as i16
    }

    fn raw(self) -> i32 {
        i32::from(self)
    }

    fn product(self, w: Self) -> i32 {
        // Exact under `narrow_lanes` (|a·w| ≤ 2^14), and an i16 multiply
        // fills a vector register with twice the products of an i32 one.
        i32::from(self.wrapping_mul(w))
    }
}

impl Lane for i32 {
    fn from_raw(raw: i32) -> Self {
        raw
    }

    fn raw(self) -> i32 {
        self
    }

    fn product(self, w: Self) -> i32 {
        self * w
    }
}

/// Tables in the storage their formats allow ([`narrow_lanes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lanes<N, W> {
    Narrow(N),
    Wide(W),
}

impl<N: Default, W> Default for Lanes<N, W> {
    fn default() -> Self {
        Self::Narrow(N::default())
    }
}

impl<N: Default, W: Default> Lanes<N, W> {
    /// The narrow tables, empty ones in place of wide ones.
    fn narrow_mut(&mut self) -> &mut N {
        if let Self::Wide(_) = self {
            *self = Self::Narrow(N::default());
        }
        match self {
            Self::Narrow(n) => n,
            Self::Wide(_) => unreachable!("made narrow above"),
        }
    }

    /// The wide tables, empty ones in place of narrow ones.
    fn wide_mut(&mut self) -> &mut W {
        if let Self::Narrow(_) = self {
            *self = Self::Wide(W::default());
        }
        match self {
            Self::Wide(w) => w,
            Self::Narrow(_) => unreachable!("made wide above"),
        }
    }
}

/// `raw` converted entry by entry to another storage.
fn convert<A: Lane, B: Lane>(raw: &[A]) -> Vec<B> {
    raw.iter().map(|&v| B::from_raw(v.raw())).collect()
}

/// A batch quantized to the activation format, in the storage of the
/// forward that reads it. [`QuantizedBnn::quantize_input`] quantizes a
/// batch once, and every Monte Carlo member of it reads the same table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantizedInput {
    rows: usize,
    cols: usize,
    /// The `(act, weight)` format pair of the network it was made for.
    formats: Option<(QFormat, QFormat)>,
    table: Lanes<Vec<i16>, Vec<i32>>,
}

impl QuantizedInput {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Overwrites `out` with the rows `indices` of `self`, in that order,
    /// reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Self) {
        fn gather<T: Copy>(src: &[T], cols: usize, indices: &[usize], dst: &mut Vec<T>) {
            dst.clear();
            for &r in indices {
                dst.extend_from_slice(&src[r * cols..(r + 1) * cols]);
            }
        }
        out.rows = indices.len();
        out.cols = self.cols;
        out.formats = self.formats;
        match &self.table {
            Lanes::Narrow(t) => gather(t, self.cols, indices, out.table.narrow_mut()),
            Lanes::Wide(t) => gather(t, self.cols, indices, out.table.wide_mut()),
        }
    }

    /// Quantizes `x` to `formats.0`, in `i16` lanes if `narrow`.
    fn quantize_from(&mut self, x: &Matrix, formats: (QFormat, QFormat), narrow: bool) {
        fn quantize<T: Lane>(x: &Matrix, fmt: QFormat, dst: &mut Vec<T>) {
            dst.clear();
            dst.extend(x.data().iter().map(|&v| T::from_raw(fmt.quantize_f32(v))));
        }
        self.rows = x.rows();
        self.cols = x.cols();
        self.formats = Some(formats);
        if narrow {
            quantize(x, formats.0, self.table.narrow_mut());
        } else {
            quantize(x, formats.0, self.table.wide_mut());
        }
    }
}

/// Per-layer `(weights, biases)` tables in one storage.
type Tables<T> = Vec<(Vec<T>, Vec<T>)>;

/// One sampled weight set, the weight generator's output for one Monte
/// Carlo sample: per layer, a row-major `in_dim × out_dim` table and the
/// biases. When `act_bits + w_bits ≤ 16` (the default `B = 8`) the
/// tables are `i16`, half the bytes of `i32` ones.
///
/// The sampler saturates every weight into the weight format, so a
/// sampled set needs no range check before the forward. Hand-built `i32`
/// tables come in through [`WeightSet::from_tables`], which checks them
/// once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightSet {
    /// The `(act, weight)` format pair of the network it was made for.
    formats: Option<(QFormat, QFormat)>,
    /// Whether every entry lies in the weight format (narrow tables
    /// always do).
    in_format: bool,
    tables: Lanes<Tables<i16>, Tables<i32>>,
}

impl WeightSet {
    /// Checks hand-built per-layer `(weights, biases)` tables against
    /// `spec`'s formats, in one scan. Tables inside the weight format
    /// take the forward of a sampled set, in `i16` lanes where the
    /// formats allow. A single entry outside it keeps the whole set on
    /// `i32` tables with wrapping `i64` accumulators, the arithmetic of
    /// [`vibnn_fixed::MacAccumulator`].
    pub fn from_tables(tables: &[(Vec<i32>, Vec<i32>)], spec: &QuantizationSpec) -> Self {
        let fmt = spec.weight_fmt;
        let in_format = tables.iter().all(|(w, b)| within(w, fmt) && within(b, fmt));
        let tables = if in_format && narrow_lanes(spec.act_fmt, fmt) {
            Lanes::Narrow(
                tables
                    .iter()
                    .map(|(w, b)| (convert(w), convert(b)))
                    .collect(),
            )
        } else {
            Lanes::Wide(tables.to_vec())
        };
        Self {
            formats: Some((spec.act_fmt, fmt)),
            in_format,
            tables,
        }
    }

    /// The tables as `i32`, per layer `(weights, biases)`.
    pub fn tables(&self) -> Vec<(Vec<i32>, Vec<i32>)> {
        match &self.tables {
            Lanes::Narrow(t) => t.iter().map(|(w, b)| (convert(w), convert(b))).collect(),
            Lanes::Wide(t) => t.clone(),
        }
    }

    /// Bytes the table entries occupy.
    pub fn table_bytes(&self) -> usize {
        fn bytes<T>(t: &Tables<T>) -> usize {
            t.iter()
                .map(|(w, b)| (w.len() + b.len()) * size_of::<T>())
                .sum()
        }
        match &self.tables {
            Lanes::Narrow(t) => bytes(t),
            Lanes::Wide(t) => bytes(t),
        }
    }
}

/// Weights [`QuantizedBnn::forward_into`] runs on: a [`WeightSet`], or
/// hand-built per-layer `(weights, biases)` `i32` tables, which
/// [`WeightSet::from_tables`] checks on the way in.
pub trait AsWeightSet {
    /// `self` as a weight set for `spec`'s formats.
    fn as_weight_set(&self, spec: &QuantizationSpec) -> Cow<'_, WeightSet>;
}

impl AsWeightSet for WeightSet {
    fn as_weight_set(&self, _spec: &QuantizationSpec) -> Cow<'_, WeightSet> {
        Cow::Borrowed(self)
    }
}

impl AsWeightSet for Vec<(Vec<i32>, Vec<i32>)> {
    fn as_weight_set(&self, spec: &QuantizationSpec) -> Cow<'_, WeightSet> {
        Cow::Owned(WeightSet::from_tables(self, spec))
    }
}

/// One storage's forward buffers: the activation tables (a layer's input
/// and output, which swap roles layer by layer) and the `i32` and `i64`
/// accumulators.
#[derive(Debug, Clone, Default)]
struct Buffers<T> {
    act: Vec<T>,
    next: Vec<T>,
    acc: Vec<i32>,
    acc_wide: Vec<i64>,
}

/// Caller-owned buffers for [`QuantizedBnn::forward_into`]: the quantized
/// input and both storages' activation tables and accumulators. They
/// grow to the largest shapes seen and are then reused, so a scratch kept
/// across Monte Carlo samples and batches makes the forward pass
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    input: QuantizedInput,
    narrow: Buffers<i16>,
    wide: Buffers<i32>,
}

/// Per-worker state of the Monte Carlo loops: the ε buffer, the sampled
/// weight set and the forward scratch of [`QuantizedBnn::sample_member`].
/// Each sample overwrites the tables in place, so keep one per worker
/// across samples and batches and a member allocates nothing but its
/// output.
#[derive(Debug, Default)]
pub struct McScratch {
    eps: Vec<f64>,
    weights: WeightSet,
    forward: ForwardScratch,
}

/// Batch rows that share one pass over a weight row: the row is read
/// from L2 once and reused from L1 for every row of the block.
const ROW_BLOCK: usize = 8;

/// Whether a layer with `in_dim` inputs can accumulate in `i32` exactly.
///
/// Every term of an accumulator — each of the `in_dim` products and the
/// bias shifted by the activation fraction width — is at most
/// `2^(act_bits − 1) · 2^(w_bits − 1)` in magnitude, so every partial sum
/// fits when `(in_dim + 1) · 2^(act_bits + w_bits − 2) < 2^31`. The
/// widths are read from the two formats, which a checkpoint may give
/// different widths. At the default `B = 8` it holds for any
/// `in_dim` below 131,071.
fn narrow_accumulator_exact(in_dim: usize, act_fmt: QFormat, weight_fmt: QFormat) -> bool {
    let term_bits = act_fmt.total_bits() + weight_fmt.total_bits() - 2;
    ((in_dim as u128 + 1) << term_bits) < 1u128 << 31
}

/// Whether every raw value lies in `fmt`'s range — the premise of
/// [`narrow_accumulator_exact`] for weight tables, which
/// [`WeightSet::from_tables`] checks once for hand-built ones.
fn within(raw: &[i32], fmt: QFormat) -> bool {
    let (lo, hi) = raw
        .iter()
        .fold((i32::MAX, i32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    lo >= fmt.min_raw() && hi <= fmt.max_raw()
}

/// An integer accumulator of the forward kernel.
trait Accumulator: Copy + Into<i64> {
    /// The bias term, at the product scale.
    fn bias(b: i32, act_f: u32) -> Self;
    /// `self + a·w`.
    fn mac<T: Lane>(self, a: T, w: T) -> Self;
}

impl Accumulator for i32 {
    fn bias(b: i32, act_f: u32) -> Self {
        b << act_f
    }

    fn mac<T: Lane>(self, a: T, w: T) -> Self {
        self + a.product(w)
    }
}

impl Accumulator for i64 {
    fn bias(b: i32, act_f: u32) -> Self {
        i64::from(b) << act_f
    }

    fn mac<T: Lane>(self, a: T, w: T) -> Self {
        self.wrapping_add(i64::from(a.raw()) * i64::from(w.raw()))
    }
}

/// One layer's MACs: `acc[r][j] = bias[j] + Σ_i input[r][i] · w[i][j]`
/// over flat row-major tables, row-outer (in blocks of [`ROW_BLOCK`]),
/// input-middle, output-inner, so weight reads are contiguous and the
/// inner loop vectorises. Zero inputs contribute nothing and are skipped.
fn mac_layer<T: Lane, A: Accumulator>(
    input: &[T],
    in_dim: usize,
    w: &[T],
    bias: &[T],
    act_f: u32,
    acc: &mut [A],
) {
    let out_dim = bias.len();
    if out_dim == 0 {
        return;
    }
    for row in acc.chunks_exact_mut(out_dim) {
        for (a, &b) in row.iter_mut().zip(bias) {
            *a = A::bias(b.raw(), act_f);
        }
    }
    if in_dim == 0 {
        return;
    }
    for (x_block, acc_block) in input
        .chunks(ROW_BLOCK * in_dim)
        .zip(acc.chunks_mut(ROW_BLOCK * out_dim))
    {
        for (i, w_row) in w.chunks_exact(out_dim).enumerate() {
            for (x_row, acc_row) in x_block
                .chunks_exact(in_dim)
                .zip(acc_block.chunks_exact_mut(out_dim))
            {
                let a = x_row[i];
                if a == T::default() {
                    continue;
                }
                for (acc, &wv) in acc_row.iter_mut().zip(w_row) {
                    *acc = acc.mac(a, wv);
                }
            }
        }
    }
}

/// A layer's outputs: each accumulator requantized into the activation
/// format `fmt` (the sums carry `shift` more fraction bits), then ReLU
/// on hidden layers.
fn finish_layer<A: Accumulator, T: Lane>(
    acc: &[A],
    fmt: QFormat,
    shift: u32,
    relu: bool,
    next: &mut Vec<T>,
) {
    next.clear();
    next.extend(acc.iter().map(|&raw| {
        let v = fmt.requantize(raw.into(), fmt.frac_bits() + shift);
        T::from_raw(if relu { vibnn_fixed::relu_raw(v) } else { v })
    }));
}

/// A BNN deployed on the fixed-point datapath.
///
/// # Example
///
/// ```
/// use vibnn_bnn::{Bnn, BnnConfig};
/// use vibnn_grng::BoxMullerGrng;
/// use vibnn_hw::QuantizedBnn;
/// use vibnn_nn::Matrix;
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 2]), 1);
/// let calib = Matrix::zeros(4, 4);
/// let q = QuantizedBnn::from_params(&bnn.params(), 8, &calib);
/// let eps = BoxMullerGrng::new(2);
/// // Sample `s` of the 4 draws its weights from `eps.fork(s)`.
/// let probs = q.predict_proba_mc_parallel(&calib, 4, &eps, 1);
/// assert_eq!(probs.cols(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedBnn {
    spec: QuantizationSpec,
    layers: Vec<QLayer>,
}

impl QuantizedBnn {
    /// Quantizes `params` at `bit_len` bits, calibrating the activation
    /// format with a float forward pass over `calibration` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or shapes mismatch.
    pub fn from_params(params: &BnnParams, bit_len: u32, calibration: &Matrix) -> Self {
        assert!(calibration.rows() > 0, "need calibration inputs");
        assert_eq!(
            calibration.cols(),
            params.weight_mu[0].rows(),
            "calibration width mismatch"
        );
        // Float mean-forward pass to find the activation range; a modest
        // margin absorbs weight-sampling noise, and saturation handles the
        // rare excursions beyond it (clipping outliers costs far less
        // accuracy than starving the format of fraction bits).
        let mut act_max = 1.0f64;
        let mut h = calibration.clone();
        let layers = params.layers();
        for l in 0..layers {
            let mut y = h.matmul(&params.weight_mu[l]);
            y.add_row_broadcast(&params.bias_mu[l]);
            for &v in y.data() {
                act_max = act_max.max(f64::from(v.abs()));
            }
            if l + 1 < layers {
                y.map_inplace(|v| v.max(0.0));
            }
            h = y;
        }
        let spec = QuantizationSpec::calibrate(params, bit_len, act_max * 1.3);
        Self::with_spec(params, spec)
    }

    /// Quantizes with an explicit spec.
    pub fn with_spec(params: &BnnParams, spec: QuantizationSpec) -> Self {
        let mut layers = Vec::with_capacity(params.layers());
        for l in 0..params.layers() {
            let mu_m = &params.weight_mu[l];
            let sg_m = &params.weight_sigma[l];
            layers.push(QLayer {
                in_dim: mu_m.rows(),
                out_dim: mu_m.cols(),
                mu: mu_m
                    .data()
                    .iter()
                    .map(|&v| spec.weight_fmt.quantize_f32(v))
                    .collect(),
                sigma: sg_m
                    .data()
                    .iter()
                    .map(|&v| spec.sigma_fmt.quantize_f32(v))
                    .collect(),
                bias_mu: params.bias_mu[l]
                    .iter()
                    .map(|&v| spec.weight_fmt.quantize_f32(v))
                    .collect(),
                bias_sigma: params.bias_sigma[l]
                    .iter()
                    .map(|&v| spec.sigma_fmt.quantize_f32(v))
                    .collect(),
            });
        }
        Self { spec, layers }
    }

    /// The quantization formats in use.
    pub fn spec(&self) -> &QuantizationSpec {
        &self.spec
    }

    /// Layer sizes `[input, hidden…, output]`.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut v = vec![self.layers[0].in_dim];
        v.extend(self.layers.iter().map(|l| l.out_dim));
        v
    }

    /// Total weight count (µ entries).
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(|l| l.mu.len()).sum()
    }

    /// The `(act, weight)` format pair, which decides the forward's
    /// storage ([`narrow_lanes`]).
    fn formats(&self) -> (QFormat, QFormat) {
        (self.spec.act_fmt, self.spec.weight_fmt)
    }

    /// Whether this network's forward runs in `i16` lanes.
    fn narrow(&self) -> bool {
        narrow_lanes(self.spec.act_fmt, self.spec.weight_fmt)
    }

    /// Samples one full set of quantized weights `w_q = µ_q + requant(σ_q·ε_q)`
    /// — the weight generator's output for one Monte Carlo sample.
    /// Returned per layer as row-major `in_dim × out_dim` tables, plus
    /// biases.
    ///
    /// ε is drawn through the block API: one [`GaussianSource::fill`] per
    /// weight table and one per bias row (the same stream order as
    /// per-scalar draws), so hardware-style generators run their batched
    /// kernels instead of being called once per weight.
    pub fn sample_weights(&self, eps_src: &mut impl GaussianSource) -> WeightSet {
        self.sample_weights_with(eps_src, &mut Vec::new())
    }

    /// [`Self::sample_weights`] drawing into a caller-owned ε scratch
    /// buffer. The Monte Carlo loops keep the tables too, in a
    /// [`McScratch`], through [`Self::sample_member_into`].
    pub fn sample_weights_with(
        &self,
        eps_src: &mut impl GaussianSource,
        eps: &mut Vec<f64>,
    ) -> WeightSet {
        let mut weights = WeightSet::default();
        self.sample_weight_set_into(eps_src, eps, &mut weights);
        weights
    }

    /// The weight generator into a reused set, in the storage the
    /// formats allow.
    fn sample_weight_set_into(
        &self,
        eps_src: &mut impl GaussianSource,
        eps: &mut Vec<f64>,
        set: &mut WeightSet,
    ) {
        set.formats = Some(self.formats());
        set.in_format = true;
        if self.narrow() {
            self.sample_weights_into(eps_src, eps, set.tables.narrow_mut());
        } else {
            self.sample_weights_into(eps_src, eps, set.tables.wide_mut());
        }
    }

    /// The weight generator: overwrites `weights` with one sampled set,
    /// reusing its tables' capacity, and draws ε through `eps`. Once
    /// both have grown to the network's shapes it allocates nothing. The
    /// storage only narrows the store: every weight is computed in the
    /// same arithmetic and saturated into the weight format first.
    fn sample_weights_into<T: Lane>(
        &self,
        eps_src: &mut impl GaussianSource,
        eps: &mut Vec<f64>,
        weights: &mut Tables<T>,
    ) {
        let spec = &self.spec;
        let prod_frac = spec.sigma_fmt.frac_bits() + spec.eps_fmt.frac_bits();
        let max_len = self
            .layers
            .iter()
            .map(|l| l.mu.len())
            .max()
            .unwrap_or(0);
        eps.resize(max_len, 0.0);
        let sample_into = |dst: &mut Vec<T>, mu: &[i32], sigma: &[i32], eps: &[f64]| {
            dst.clear();
            dst.extend(mu.iter().zip(sigma).zip(eps).map(|((&mu, &sg), &e)| {
                let e = spec.eps_fmt.quantize(e);
                let noise = spec
                    .weight_fmt
                    .requantize(i64::from(sg) * i64::from(e), prod_frac);
                T::from_raw(spec.weight_fmt.saturate(i64::from(mu) + i64::from(noise)))
            }));
        };
        weights.resize_with(self.layers.len(), Default::default);
        for (layer, (w, b)) in self.layers.iter().zip(weights.iter_mut()) {
            let n = layer.mu.len();
            eps_src.fill(&mut eps[..n]);
            sample_into(w, &layer.mu, &layer.sigma, &eps[..n]);
            let nb = layer.bias_mu.len();
            eps_src.fill(&mut eps[..nb]);
            sample_into(b, &layer.bias_mu, &layer.bias_sigma, &eps[..nb]);
        }
    }

    /// Quantizes a batch to the activation format, in the storage of this
    /// network's forward: the input every Monte Carlo member of the batch
    /// reads ([`Self::sample_member`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` is not the input width.
    pub fn quantize_input(&self, x: &Matrix) -> QuantizedInput {
        assert_eq!(x.cols(), self.layers[0].in_dim, "activation width mismatch");
        let mut input = QuantizedInput::default();
        input.quantize_from(x, self.formats(), self.narrow());
        input
    }

    /// Forward pass of one batch through one weight set; returns
    /// dequantized logits. This is the reference semantics the cycle
    /// simulator must match bit-for-bit. A convenience wrapper over
    /// [`Self::forward_into`] with fresh buffers.
    ///
    /// # Panics
    ///
    /// As [`Self::forward_into`].
    pub fn forward_with_weights(&self, x: &Matrix, weights: &impl AsWeightSet) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, weights, &mut ForwardScratch::default(), &mut out);
        out
    }

    /// The integer forward pass of [`Self::forward_with_weights`], writing
    /// the dequantized logits into `out` (reshaped to `x.rows() ×
    /// classes`) and keeping every intermediate in `scratch`. Once the
    /// buffers have grown to the batch's shapes it allocates nothing, so
    /// a caller reuses one scratch across Monte Carlo samples.
    ///
    /// Each layer is one pass over its row-major `in_dim × out_dim`
    /// weight table: accumulators start at the bias (shifted to the
    /// product scale), then for every input `i` the activation `x[r][i]`
    /// scales weight row `i` into row `r`'s accumulators, a few batch
    /// rows per weight row. Zero activations are skipped.
    ///
    /// When `act_bits + w_bits ≤ 16` (the default `B = 8`), activations
    /// and weights are `i16` and each product is formed in an `i16` lane,
    /// which is exact because `|a·w| ≤ 2^14`.
    /// Accumulation is in `i32` when every partial sum provably fits —
    /// `(in_dim + 1) · 2^(act_bits + w_bits − 2) < 2^31` with the weights
    /// inside the weight format — and otherwise in wrapping `i64`, the
    /// [`vibnn_fixed::MacAccumulator`] arithmetic. Integer addition is
    /// exact and associative (modulo 2^64 in the wide case), so neither
    /// the loop order, the skipped zero products, the storage nor the
    /// narrow accumulator can change a bit of the result.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not hold one `(in_dim·out_dim, out_dim)`
    /// table pair per layer, is a [`WeightSet`] made for other formats,
    /// or `x.cols()` is not the input width. Serving
    /// rejects ragged rows with a typed `ShapeMismatch` before they reach
    /// this check.
    pub fn forward_into(
        &self,
        x: &Matrix,
        weights: &impl AsWeightSet,
        scratch: &mut ForwardScratch,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols(), self.layers[0].in_dim, "activation width mismatch");
        let weights = weights.as_weight_set(&self.spec);
        // The input takes the set's storage: a hand-built set outside the
        // weight format runs on i32 tables whatever the formats allow.
        let ForwardScratch {
            input,
            narrow,
            wide,
        } = scratch;
        input.quantize_from(
            x,
            self.formats(),
            matches!(weights.tables, Lanes::Narrow(_)),
        );
        self.forward_quantized(input, &weights, narrow, wide, out);
    }

    /// The integer forward of a quantized batch through a weight set made
    /// for this network's formats.
    fn forward_quantized(
        &self,
        x: &QuantizedInput,
        weights: &WeightSet,
        narrow: &mut Buffers<i16>,
        wide: &mut Buffers<i32>,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols, self.layers[0].in_dim, "activation width mismatch");
        assert_eq!(
            x.formats,
            Some(self.formats()),
            "input quantized for another network's formats"
        );
        assert_eq!(
            weights.formats,
            Some(self.formats()),
            "weight set made for another network's formats"
        );
        match (&x.table, &weights.tables) {
            (Lanes::Narrow(x_raw), Lanes::Narrow(w)) => {
                self.forward_lanes(x_raw, x.rows, w, true, narrow, out);
            }
            (Lanes::Wide(x_raw), Lanes::Wide(w)) => {
                self.forward_lanes(x_raw, x.rows, w, weights.in_format, wide, out);
            }
            _ => unreachable!("an input takes the storage of the weight set it meets"),
        }
    }

    /// [`Self::forward_into`]'s layer loop in one storage: `x` is the
    /// quantized `rows × in_dim` input, and `in_format` says whether
    /// every weight lies in the weight format.
    fn forward_lanes<T: Lane>(
        &self,
        x: &[T],
        rows: usize,
        weights: &[(Vec<T>, Vec<T>)],
        in_format: bool,
        buffers: &mut Buffers<T>,
        out: &mut Matrix,
    ) {
        assert_eq!(weights.len(), self.layers.len(), "weight set mismatch");
        for (layer, (w, b)) in self.layers.iter().zip(weights) {
            assert!(
                w.len() == layer.in_dim * layer.out_dim && b.len() == layer.out_dim,
                "weight table shape mismatch"
            );
        }
        let spec = &self.spec;
        let act_f = spec.act_fmt.frac_bits();
        let shift = spec.weight_fmt.frac_bits();
        let Buffers {
            act,
            next,
            acc,
            acc_wide,
        } = buffers;
        let last = self.layers.len() - 1;
        for (l, (layer, (w, b))) in self.layers.iter().zip(weights).enumerate() {
            let input = if l == 0 { x } else { &act[..] };
            let n = rows * layer.out_dim;
            let relu = l < last;
            if in_format && narrow_accumulator_exact(layer.in_dim, spec.act_fmt, spec.weight_fmt) {
                acc.resize(n, 0);
                mac_layer(input, layer.in_dim, w, b, act_f, acc);
                finish_layer(acc, spec.act_fmt, shift, relu, next);
            } else {
                acc_wide.resize(n, 0);
                mac_layer(input, layer.in_dim, w, b, act_f, acc_wide);
                finish_layer(acc_wide, spec.act_fmt, shift, relu, next);
            }
            std::mem::swap(act, next);
        }
        out.resize(rows, self.layers[last].out_dim);
        for (o, &v) in out.data_mut().iter_mut().zip(act.iter()) {
            *o = spec.act_fmt.dequantize(v.raw()) as f32;
        }
        // Give each buffer the same role in every call (`next` takes the
        // first layer's output), so a single call grows the scratch to its
        // steady size.
        if self.layers.len() % 2 == 1 {
            std::mem::swap(act, next);
        }
    }

    /// One Monte Carlo member: sample a weight set from `src`, run the
    /// integer forward on the quantized batch `x` and softmax the
    /// logits. Every quantized Monte Carlo loop — the batched calls here
    /// and the serving backend's adaptive driver — takes its members
    /// from this one step, all of a batch's members from one
    /// [`Self::quantize_input`].
    ///
    /// # Panics
    ///
    /// Panics if `x` was quantized by a network of other formats or
    /// input width.
    pub fn sample_member(
        &self,
        x: &QuantizedInput,
        src: &mut impl GaussianSource,
        scratch: &mut McScratch,
    ) -> Matrix {
        let mut probs = Matrix::zeros(0, 0);
        self.sample_member_into(x, src, scratch, &mut probs);
        probs
    }

    /// [`Self::sample_member`] writing the probabilities into `out`
    /// (reshaped to `x.rows() × classes`). The weight set is sampled into
    /// `scratch`'s tables in place, so with a warm scratch and output the
    /// member allocates nothing.
    ///
    /// # Panics
    ///
    /// As [`Self::sample_member`].
    pub fn sample_member_into(
        &self,
        x: &QuantizedInput,
        src: &mut impl GaussianSource,
        scratch: &mut McScratch,
        out: &mut Matrix,
    ) {
        let McScratch {
            eps,
            weights,
            forward,
        } = scratch;
        self.sample_weight_set_into(src, eps, weights);
        self.forward_quantized(x, weights, &mut forward.narrow, &mut forward.wide, out);
        softmax_rows(out);
    }

    /// Monte Carlo predictive probabilities on the fixed-point datapath
    /// (equation 6 with hardware weight sampling), with the ensemble
    /// spread across `threads` `std::thread::scope` workers.
    ///
    /// Mirrors `vibnn_bnn::Bnn::predict_proba_mc_parallel`: sample `s`
    /// draws its ε from `eps_src.fork(s)` and the per-sample softmax
    /// outputs are reduced in ascending sample order, so the result is
    /// bit-identical for every thread count. `threads == 0` uses the
    /// `VIBNN_THREADS` knob.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn predict_proba_mc_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> Matrix {
        reduce_mean(&self.predict_proba_mc_members_parallel(x, samples, eps_src, threads))
    }

    /// The per-sample softmax outputs behind
    /// [`Self::predict_proba_mc_parallel`], returned in ascending sample
    /// order — the batch entry point for callers that need the Monte
    /// Carlo *members* (predictive-uncertainty estimates, the serving
    /// engine) rather than just their mean.
    ///
    /// Sample `s` draws its ε from `eps_src.fork(s)` exactly as the mean
    /// path does, so `vibnn_bnn::reduce_mean` over the returned members is
    /// **bit-identical** to [`Self::predict_proba_mc_parallel`] at every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn predict_proba_mc_members_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> Vec<Matrix> {
        assert!(samples > 0, "need at least one Monte Carlo sample");
        let x = self.quantize_input(x);
        parallel_fork_map(
            samples,
            threads,
            eps_src,
            |_, src, scratch: &mut McScratch| self.sample_member(&x, src, scratch),
        )
    }

    /// Accuracy under hardware MC inference (see
    /// [`Self::predict_proba_mc_parallel`]).
    pub fn evaluate_mc_parallel<S: StreamFork + Sync>(
        &self,
        x: &Matrix,
        labels: &[usize],
        samples: usize,
        eps_src: &S,
        threads: usize,
    ) -> f64 {
        vibnn_nn::accuracy(
            &self.predict_proba_mc_parallel(x, samples, eps_src, threads),
            labels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vibnn_bnn::{Bnn, BnnConfig};
    use vibnn_fixed::MacAccumulator;
    use vibnn_grng::{BoxMullerGrng, ZigguratGrng};
    use vibnn_nn::GaussianInit;

    /// The forward pass before the flat kernel, kept as its bit-exactness
    /// oracle: `Vec<Vec<i32>>` rows, one [`MacAccumulator`] per output,
    /// weights read with a column stride, bias added last.
    fn scalar_oracle(q: &QuantizedBnn, x: &Matrix, weights: &[(Vec<i32>, Vec<i32>)]) -> Matrix {
        let spec = &q.spec;
        let act_f = spec.act_fmt.frac_bits();
        let w_f = spec.weight_fmt.frac_bits();
        let mut act: Vec<Vec<i32>> = (0..x.rows())
            .map(|r| {
                x.row(r)
                    .iter()
                    .map(|&v| spec.act_fmt.quantize_f32(v))
                    .collect()
            })
            .collect();
        let last = q.layers.len() - 1;
        for (l, (layer, (w, b))) in q.layers.iter().zip(weights).enumerate() {
            let mut next: Vec<Vec<i32>> = Vec::with_capacity(act.len());
            for row in &act {
                let mut out_row = Vec::with_capacity(layer.out_dim);
                for j in 0..layer.out_dim {
                    let mut acc = MacAccumulator::new();
                    for (i, &xi) in row.iter().enumerate() {
                        acc.mac(xi, w[i * layer.out_dim + j]);
                    }
                    acc.add_raw(i64::from(b[j]) << act_f);
                    let mut v = spec.act_fmt.requantize(acc.raw(), act_f + w_f);
                    if l < last {
                        v = vibnn_fixed::relu_raw(v);
                    }
                    out_row.push(v);
                }
                next.push(out_row);
            }
            act = next;
        }
        let mut logits = Matrix::zeros(act.len(), q.layers[last].out_dim);
        for (r, row) in act.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                logits[(r, c)] = spec.act_fmt.dequantize(v) as f32;
            }
        }
        logits
    }

    /// SplitMix64: every random kernel case is built from one seed.
    struct CaseRng(u64);

    impl CaseRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A format of `total` bits with any fraction width.
        fn format(&mut self, total: u32) -> QFormat {
            QFormat::new(total, self.below(u64::from(total)) as u32)
        }

        /// `n` raw values of `fmt` in one of four patterns: all zero,
        /// pinned at `min_raw`/`max_raw`, uniform, or mostly zero.
        fn raws(&mut self, fmt: QFormat, n: usize) -> Vec<i32> {
            let (lo, hi) = (i64::from(fmt.min_raw()), i64::from(fmt.max_raw()));
            let span = (hi - lo + 1) as u64;
            let pattern = self.below(4);
            (0..n)
                .map(|_| match pattern {
                    0 => 0,
                    1 if self.below(2) == 0 => fmt.min_raw(),
                    1 => fmt.max_raw(),
                    3 if self.below(4) != 0 => 0,
                    _ => (lo + self.below(span) as i64) as i32,
                })
                .collect()
        }
    }

    /// A network of `sizes` on `act_fmt`/`weight_fmt` with one random
    /// weight set and `rows` random input rows, some all zero.
    fn kernel_case(
        rng: &mut CaseRng,
        sizes: &[usize],
        rows: usize,
        act_fmt: QFormat,
        weight_fmt: QFormat,
    ) -> (QuantizedBnn, Matrix, Tables<i32>) {
        let pairs = sizes.windows(2);
        let params = BnnParams {
            weight_mu: pairs.clone().map(|p| Matrix::zeros(p[0], p[1])).collect(),
            weight_sigma: pairs.clone().map(|p| Matrix::zeros(p[0], p[1])).collect(),
            bias_mu: pairs.clone().map(|p| vec![0.0; p[1]]).collect(),
            bias_sigma: pairs.clone().map(|p| vec![0.0; p[1]]).collect(),
        };
        let spec = QuantizationSpec {
            bit_len: act_fmt.total_bits(),
            weight_fmt,
            sigma_fmt: weight_fmt,
            act_fmt,
            eps_fmt: act_fmt,
        };
        let q = QuantizedBnn::with_spec(&params, spec);
        let weights = pairs
            .map(|p| {
                (
                    rng.raws(weight_fmt, p[0] * p[1]),
                    rng.raws(weight_fmt, p[1]),
                )
            })
            .collect();
        let mut x = Matrix::zeros(rows, sizes[0]);
        for r in 0..rows {
            if rng.below(8) == 0 {
                continue;
            }
            let raw = rng.raws(act_fmt, sizes[0]);
            for (v, &raw) in x.row_mut(r).iter_mut().zip(&raw) {
                *v = act_fmt.dequantize(raw) as f32;
            }
        }
        (q, x, weights)
    }

    fn logit_bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat kernel equals the scalar oracle bit for bit on random
        /// topologies (up to 784 wide, 0 to 70 rows), every bit length
        /// (both accumulator widths), act and weight formats of different
        /// widths, zero rows and values pinned at the rails.
        #[test]
        fn kernel_matches_scalar_oracle(
            seed in 0u64..,
            bit_len in 2u32..=32,
            rows in 0usize..=70,
            layers in 1usize..=3,
        ) {
            let mut rng = CaseRng(seed);
            let act_fmt = rng.format(bit_len);
            let w_bits = if rng.below(2) == 0 { bit_len } else { 2 + rng.below(31) as u32 };
            let weight_fmt = rng.format(w_bits);
            let mut sizes = vec![if rng.below(4) == 0 { 784 } else { 1 + rng.below(784) as usize }];
            for _ in 1..layers {
                sizes.push(1 + rng.below(200) as usize);
            }
            sizes.push(1 + rng.below(16) as usize);
            let (q, x, weights) = kernel_case(&mut rng, &sizes, rows, act_fmt, weight_fmt);
            prop_assert_eq!(
                logit_bits(&q.forward_with_weights(&x, &weights)),
                logit_bits(&scalar_oracle(&q, &x, &weights))
            );
        }
    }

    /// The weight sampler before it wrote into a scratch, kept as the
    /// bit-exactness oracle of the in-place one: fresh tables per layer
    /// and one `push` per weight.
    fn sample_weights_oracle(
        q: &QuantizedBnn,
        eps_src: &mut impl GaussianSource,
    ) -> Vec<(Vec<i32>, Vec<i32>)> {
        let spec = &q.spec;
        let prod_frac = spec.sigma_fmt.frac_bits() + spec.eps_fmt.frac_bits();
        let max_len = q.layers.iter().map(|l| l.mu.len()).max().unwrap_or(0);
        let mut eps = vec![0.0; max_len];
        let sample_into = |dst: &mut Vec<i32>, mu: &[i32], sigma: &[i32], eps: &[f64]| {
            for ((&mu, &sg), &e) in mu.iter().zip(sigma).zip(eps) {
                let e = spec.eps_fmt.quantize(e);
                let noise = spec
                    .weight_fmt
                    .requantize(i64::from(sg) * i64::from(e), prod_frac);
                dst.push(spec.weight_fmt.saturate(i64::from(mu) + i64::from(noise)));
            }
        };
        q.layers
            .iter()
            .map(|layer| {
                let n = layer.mu.len();
                eps_src.fill(&mut eps[..n]);
                let mut w = Vec::with_capacity(n);
                sample_into(&mut w, &layer.mu, &layer.sigma, &eps[..n]);
                let nb = layer.bias_mu.len();
                eps_src.fill(&mut eps[..nb]);
                let mut b = Vec::with_capacity(nb);
                sample_into(&mut b, &layer.bias_mu, &layer.bias_sigma, &eps[..nb]);
                (w, b)
            })
            .collect()
    }

    /// An ε source that replays a fixed list, cycling.
    struct Replay {
        vals: Vec<f64>,
        at: usize,
    }

    impl GaussianSource for Replay {
        fn next_gaussian(&mut self) -> f64 {
            let v = self.vals[self.at % self.vals.len()];
            self.at += 1;
            v
        }
    }

    impl CaseRng {
        /// `n` ε values for `fmt`: NaN, ±∞, ±`f64::MAX`, signed zeros,
        /// exact half-LSB ties, values at the rails and a standard spread.
        fn eps_values(&mut self, fmt: QFormat, n: usize) -> Vec<f64> {
            let lsb = (-f64::from(fmt.frac_bits())).exp2();
            let span = u64::from(fmt.max_raw().unsigned_abs()) + 1;
            (0..n)
                .map(|_| {
                    let k = self.below(2 * span) as f64 - span as f64;
                    match self.below(10) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 if self.below(2) == 0 => f64::MAX,
                        3 => -f64::MAX,
                        4 if self.below(2) == 0 => 0.0,
                        4 => -0.0,
                        5 | 6 => (k + 0.5) * lsb,
                        7 => fmt.dequantize(fmt.max_raw()) + lsb * 0.5,
                        _ => (self.below(1 << 20) as f64 / f64::from(1 << 17)) - 4.0,
                    }
                })
                .collect()
        }

        /// A network of `sizes` on `spec` with random µ/σ tables.
        fn network(&mut self, sizes: &[usize], spec: QuantizationSpec) -> QuantizedBnn {
            let layers = sizes
                .windows(2)
                .map(|p| QLayer {
                    in_dim: p[0],
                    out_dim: p[1],
                    mu: self.raws(spec.weight_fmt, p[0] * p[1]),
                    sigma: self.raws(spec.sigma_fmt, p[0] * p[1]),
                    bias_mu: self.raws(spec.weight_fmt, p[1]),
                    bias_sigma: self.raws(spec.sigma_fmt, p[1]),
                })
                .collect();
            QuantizedBnn { spec, layers }
        }

        /// Random sizes: 1 to 3 layers, up to 300 wide.
        fn sizes(&mut self) -> Vec<usize> {
            let layers = 1 + self.below(3) as usize;
            (0..=layers).map(|_| 1 + self.below(300) as usize).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The in-place sampler equals the oracle bit for bit at every
        /// bit length, on random formats and ε at the rails (NaN, ±∞,
        /// half-LSB ties), through a scratch last used by a network of
        /// another shape and then warm on this one.
        #[test]
        fn in_place_sampler_matches_oracle(seed in 0u64.., bit_len in 2u32..=32) {
            let mut rng = CaseRng(seed);
            let spec = QuantizationSpec {
                bit_len,
                weight_fmt: rng.format(bit_len),
                sigma_fmt: rng.format(bit_len),
                act_fmt: rng.format(bit_len),
                eps_fmt: rng.format(bit_len),
            };
            let sizes = rng.sizes();
            let other_sizes = rng.sizes();
            let q = rng.network(&sizes, spec);
            let other = rng.network(&other_sizes, spec);
            let mut eps = Vec::new();
            let mut weights = Vec::new();
            let mut replay = Replay { vals: rng.eps_values(spec.eps_fmt, 97), at: 0 };
            other.sample_weights_into(&mut replay, &mut eps, &mut weights);
            for _ in 0..2 {
                let n = 1 + rng.below(500) as usize;
                let vals = rng.eps_values(spec.eps_fmt, n);
                q.sample_weights_into(&mut Replay { vals: vals.clone(), at: 0 }, &mut eps, &mut weights);
                prop_assert_eq!(&weights, &sample_weights_oracle(&q, &mut Replay { vals, at: 0 }));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sampler behind every member stores the weights in the
        /// storage its formats allow and equals the oracle bit for bit,
        /// through a set last sampled in the other storage.
        #[test]
        fn weight_set_sampler_matches_oracle(seed in 0u64.., bit_len in 2u32..=32) {
            let mut rng = CaseRng(seed);
            let w_bits = if rng.below(2) == 0 { bit_len } else { 2 + rng.below(31) as u32 };
            let spec = QuantizationSpec {
                bit_len,
                weight_fmt: rng.format(w_bits),
                sigma_fmt: rng.format(bit_len),
                act_fmt: rng.format(bit_len),
                eps_fmt: rng.format(bit_len),
            };
            let narrow = narrow_lanes(spec.act_fmt, spec.weight_fmt);
            let other_bits = if narrow { 16 } else { 2 };
            let other_spec = QuantizationSpec {
                act_fmt: rng.format(other_bits),
                weight_fmt: rng.format(other_bits),
                ..spec
            };
            let sizes = rng.sizes();
            let other_sizes = rng.sizes();
            let q = rng.network(&sizes, spec);
            let other = rng.network(&other_sizes, other_spec);
            let mut eps = Vec::new();
            let mut set = WeightSet::default();
            let mut replay = Replay { vals: rng.eps_values(spec.eps_fmt, 97), at: 0 };
            other.sample_weight_set_into(&mut replay, &mut eps, &mut set);
            for _ in 0..2 {
                let n = 1 + rng.below(500) as usize;
                let vals = rng.eps_values(spec.eps_fmt, n);
                q.sample_weight_set_into(&mut Replay { vals: vals.clone(), at: 0 }, &mut eps, &mut set);
                prop_assert_eq!(matches!(set.tables, Lanes::Narrow(_)), narrow);
                prop_assert_eq!(set.tables(), sample_weights_oracle(&q, &mut Replay { vals, at: 0 }));
            }
        }
    }

    #[test]
    fn i16_products_are_exact_at_sixteen_bits_and_widen_beyond() {
        // Every activation and weight at `min_raw`, so each product is the
        // largest the formats allow: 2^14 at 16 bits in all, which an i16
        // lane holds, and 2^15 at 17 bits, which would wrap to -2^15.
        for (act_fmt, weight_fmt, narrow) in [
            (QFormat::new(8, 4), QFormat::new(8, 3), true),
            (QFormat::new(12, 6), QFormat::new(4, 0), true),
            (QFormat::new(9, 4), QFormat::new(8, 3), false),
            (QFormat::new(8, 4), QFormat::new(9, 0), false),
        ] {
            let (a, w) = (act_fmt.min_raw(), weight_fmt.min_raw());
            let bits = act_fmt.total_bits() + weight_fmt.total_bits();
            assert_eq!(i64::from(a) * i64::from(w), 1 << (bits - 2));
            assert_eq!(narrow_lanes(act_fmt, weight_fmt), narrow, "{bits} bits");
            let lane = i64::from((a as i16).wrapping_mul(w as i16));
            assert_eq!(lane == i64::from(a) * i64::from(w), narrow, "{bits} bits");

            let mut rng = CaseRng(u64::from(bits));
            let (q, _, mut weights) = kernel_case(&mut rng, &[5, 3], 2, act_fmt, weight_fmt);
            weights[0].0.fill(w);
            weights[0].1.fill(w);
            let x = Matrix::from_vec(2, 5, vec![act_fmt.dequantize(a) as f32; 10]);
            let set = WeightSet::from_tables(&weights, q.spec());
            assert_eq!(
                matches!(set.tables, Lanes::Narrow(_)),
                narrow,
                "{bits} bits"
            );
            assert_eq!(
                logit_bits(&q.forward_with_weights(&x, &set)),
                logit_bits(&scalar_oracle(&q, &x, &weights)),
                "{bits} bits"
            );
        }
    }

    #[test]
    fn members_match_the_oracle_path_with_one_scratch() {
        // The paper's MNIST topology and the interactive one, each member
        // through one scratch, against the oracle's fresh weights and the
        // allocating forward.
        let mut scratch = McScratch::default();
        let mut out = Matrix::zeros(0, 0);
        for (seed, sizes) in [vec![784, 200, 200, 10], vec![26, 64, 2]]
            .into_iter()
            .enumerate()
        {
            let bnn = Bnn::new(BnnConfig::new(&sizes), seed as u64);
            let mut rng = GaussianInit::new(seed as u64 + 7);
            let mut x = Matrix::zeros(5, sizes[0]);
            for v in x.data_mut() {
                *v = rng.next_gaussian() as f32;
            }
            let q = QuantizedBnn::from_params(&bnn.params(), 8, &x);
            let xq = q.quantize_input(&x);
            let eps = ZigguratGrng::new(seed as u64 + 3);
            for s in 0..4 {
                q.sample_member_into(&xq, &mut eps.fork(s), &mut scratch, &mut out);
                let weights = sample_weights_oracle(&q, &mut eps.fork(s));
                assert!(matches!(scratch.weights.tables, Lanes::Narrow(_)));
                assert_eq!(scratch.weights.tables(), weights, "{sizes:?} sample {s}");
                let mut want = q.forward_with_weights(&x, &weights);
                softmax_rows(&mut want);
                assert_eq!(logit_bits(&out), logit_bits(&want), "{sizes:?} sample {s}");
            }
        }
    }

    #[test]
    fn accumulator_width_rule_reads_both_formats() {
        let b8 = QFormat::new(8, 6);
        assert!(narrow_accumulator_exact(784, b8, b8));
        assert!(narrow_accumulator_exact(131_070, b8, b8));
        assert!(!narrow_accumulator_exact(131_071, b8, b8));
        assert!(!narrow_accumulator_exact(1, QFormat::new(32, 0), b8));
        assert!(!narrow_accumulator_exact(784, b8, QFormat::new(24, 3)));
        let (a16, w12) = (QFormat::new(16, 8), QFormat::new(12, 8));
        assert!(narrow_accumulator_exact(30, a16, w12));
        assert!(!narrow_accumulator_exact(31, a16, w12));
    }

    #[test]
    fn kernel_matches_oracle_at_the_rails_with_one_scratch() {
        // Each case's weights and activations are pinned at the rails;
        // one scratch serves every shape in turn, so a buffer left over
        // from a larger or differently typed layer cannot leak into the
        // next call.
        let cases = [
            (
                vec![784, 200, 200, 10],
                64,
                QFormat::new(8, 6),
                QFormat::new(8, 5),
            ),
            (
                vec![26, 64, 2],
                5,
                QFormat::new(32, 31),
                QFormat::new(32, 31),
            ),
            (
                vec![784, 16, 4],
                70,
                QFormat::new(8, 3),
                QFormat::new(24, 20),
            ),
            (vec![3, 1], 1, QFormat::new(2, 1), QFormat::new(2, 0)),
        ];
        let mut scratch = ForwardScratch::default();
        let mut out = Matrix::zeros(0, 0);
        for (seed, (sizes, rows, act_fmt, weight_fmt)) in cases.into_iter().enumerate() {
            let mut rng = CaseRng(seed as u64);
            let (q, _, mut weights) = kernel_case(&mut rng, &sizes, rows, act_fmt, weight_fmt);
            for (w, b) in &mut weights {
                for v in w.iter_mut().chain(b.iter_mut()) {
                    *v = if rng.below(2) == 0 {
                        weight_fmt.min_raw()
                    } else {
                        weight_fmt.max_raw()
                    };
                }
            }
            let mut x = Matrix::zeros(rows, sizes[0]);
            for v in x.data_mut() {
                *v = if rng.below(2) == 0 {
                    -f32::MAX
                } else {
                    f32::MAX
                };
            }
            q.forward_into(&x, &weights, &mut scratch, &mut out);
            assert_eq!(
                logit_bits(&out),
                logit_bits(&scalar_oracle(&q, &x, &weights)),
                "{sizes:?} at act {act_fmt:?} / weight {weight_fmt:?}"
            );
        }
    }

    #[test]
    fn kernel_is_exact_on_both_sides_of_the_width_bound() {
        // Every term at its largest same-sign magnitude: inputs and
        // weights at `min_raw`, bias at `max_raw`. At 12-bit formats the
        // narrow bound admits 510 inputs and no more; 510 inputs then sum
        // to just under 2^31, and wider layers must take the i64 path.
        let act_fmt = QFormat::new(12, 11);
        let weight_fmt = QFormat::new(12, 0);
        assert!(narrow_accumulator_exact(510, act_fmt, weight_fmt));
        assert!(!narrow_accumulator_exact(511, act_fmt, weight_fmt));
        for in_dim in [510, 511, 1000] {
            let mut rng = CaseRng(in_dim as u64);
            let (q, _, mut weights) = kernel_case(&mut rng, &[in_dim, 3], 2, act_fmt, weight_fmt);
            weights[0].0.fill(weight_fmt.min_raw());
            weights[0].1.fill(weight_fmt.max_raw());
            let x = Matrix::from_vec(2, in_dim, vec![-1.0; 2 * in_dim]);
            assert_eq!(
                logit_bits(&q.forward_with_weights(&x, &weights)),
                logit_bits(&scalar_oracle(&q, &x, &weights)),
                "in_dim {in_dim}"
            );
        }
    }

    #[test]
    fn weights_outside_their_format_take_the_wide_path() {
        // A hand-built weight table beyond the format's range voids the
        // narrow bound's premise; the kernel must still match the oracle.
        let mut rng = CaseRng(41);
        let fmt = QFormat::new(8, 4);
        let (q, x, mut weights) = kernel_case(&mut rng, &[40, 12, 3], 9, fmt, fmt);
        assert!(narrow_accumulator_exact(40, fmt, fmt));
        weights[0].0[7] = i32::MAX;
        weights[1].1[2] = i32::MIN;
        assert!(!within(&weights[0].0, fmt) && !within(&weights[1].1, fmt));
        let checked = WeightSet::from_tables(&weights, q.spec());
        assert!(!checked.in_format && matches!(checked.tables, Lanes::Wide(_)));
        assert_eq!(
            logit_bits(&q.forward_with_weights(&x, &weights)),
            logit_bits(&scalar_oracle(&q, &x, &weights))
        );
    }

    #[test]
    #[should_panic(expected = "activation width mismatch")]
    fn wrong_input_width_panics_before_any_mac() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 8, 2]), 1);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(2, 4));
        let weights = q.sample_weights(&mut BoxMullerGrng::new(3));
        let _ = q.forward_with_weights(&Matrix::zeros(2, 5), &weights);
    }

    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = GaussianInit::new(seed);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut s = 0.0;
            for c in 0..4 {
                let v = rng.next_gaussian() as f32;
                x[(r, c)] = v;
                s += v;
            }
            y.push(usize::from(s > 0.0));
        }
        (x, y)
    }

    fn trained_bnn(seed: u64) -> (Bnn, Matrix, Vec<usize>) {
        let (x, y) = toy_data(512, seed);
        let mut bnn = Bnn::new(BnnConfig::new(&[4, 16, 2]).with_lr(0.02), seed ^ 1);
        for _ in 0..40 {
            bnn.train_epoch(&x, &y, 64);
        }
        (bnn, x, y)
    }

    #[test]
    fn eight_bit_accuracy_close_to_float() {
        // The Table 6 claim: 8-bit hardware degrades accuracy only
        // slightly vs the float software BNN.
        let (bnn, x, y) = trained_bnn(3);
        let float_acc = bnn.evaluate_mean(&x, &y);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 64));
        let q_acc = q.evaluate_mc_parallel(&x, &y, 8, &BoxMullerGrng::new(5), 1);
        assert!(
            q_acc > float_acc - 0.05,
            "8-bit acc {q_acc} vs float {float_acc}"
        );
    }

    #[test]
    fn accuracy_degrades_at_very_low_bit_lengths() {
        // The Figure 18 mechanism: too few bits destroy accuracy.
        let (bnn, x, y) = trained_bnn(7);
        let calib = x.rows_slice(0, 64);
        let eps = BoxMullerGrng::new(9);
        let hi = QuantizedBnn::from_params(&bnn.params(), 8, &calib)
            .evaluate_mc_parallel(&x, &y, 8, &eps, 1);
        let lo = QuantizedBnn::from_params(&bnn.params(), 3, &calib)
            .evaluate_mc_parallel(&x, &y, 8, &eps, 1);
        assert!(hi > lo, "8-bit {hi} should beat 3-bit {lo}");
    }

    #[test]
    fn sample_weights_are_within_format_range() {
        let (bnn, x, _) = trained_bnn(11);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 16));
        let mut eps = BoxMullerGrng::new(13);
        for (w, b) in q.sample_weights(&mut eps).tables() {
            let (lo, hi) = (q.spec().weight_fmt.min_raw(), q.spec().weight_fmt.max_raw());
            assert!(w.iter().all(|&v| v >= lo && v <= hi));
            assert!(b.iter().all(|&v| v >= lo && v <= hi));
        }
    }

    #[test]
    fn sampled_weights_scatter_around_mu() {
        let (bnn, x, _) = trained_bnn(17);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &x.rows_slice(0, 16));
        let mut eps = BoxMullerGrng::new(19);
        let a = q.sample_weights(&mut eps);
        let b = q.sample_weights(&mut eps);
        // Two samples should differ somewhere (σ > 0).
        assert_ne!(a.tables()[0].0, b.tables()[0].0, "weight samples identical");
    }

    #[test]
    fn zero_sigma_makes_weights_deterministic() {
        let (bnn, x, _) = trained_bnn(23);
        let mut params = bnn.params();
        for s in &mut params.weight_sigma {
            s.scale(0.0);
        }
        for b in &mut params.bias_sigma {
            for v in b.iter_mut() {
                *v = 0.0;
            }
        }
        let q = QuantizedBnn::from_params(&params, 8, &x.rows_slice(0, 16));
        let mut e1 = BoxMullerGrng::new(29);
        let mut e2 = BoxMullerGrng::new(31);
        assert_eq!(q.sample_weights(&mut e1), q.sample_weights(&mut e2));
    }

    #[test]
    fn layer_sizes_and_weight_count() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 16, 2]), 1);
        let q = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(2, 4));
        assert_eq!(q.layer_sizes(), vec![4, 16, 2]);
        assert_eq!(q.total_weights(), 4 * 16 + 16 * 2);
    }

    #[test]
    #[should_panic(expected = "need calibration inputs")]
    fn empty_calibration_panics() {
        let bnn = Bnn::new(BnnConfig::new(&[4, 4, 2]), 1);
        let _ = QuantizedBnn::from_params(&bnn.params(), 8, &Matrix::zeros(0, 4));
    }
}
