//! Versioned binary checkpoints for trained parameters and full training
//! state.
//!
//! All checkpoint files share one self-describing envelope, little-endian
//! throughout:
//!
//! ```text
//! magic   4 bytes  b"VIBN"
//! version u16      format version (currently 1)
//! kind    u8       1 = BnnParams, 2 = Bnn training state, 3 = deployment
//! payload …        kind-specific (shapes first, then f32/f64 LE tensors)
//! ```
//!
//! - **Kind 1** ([`BnnParams::save`]) is the frozen `(µ, σ)` snapshot —
//!   what gets migrated to the accelerator's weight-parameter memory.
//! - **Kind 2** ([`Bnn::save`]) is the complete training state: config,
//!   raw `(µ, ρ)` tensors, the Adam optimizer's step counter and moment
//!   vectors, the ε-substream step counter, the shuffle position, and the
//!   lifetime epoch count (which LR schedules index on) — everything
//!   needed for [`Bnn::load`] to resume training with losses
//!   **bit-identical** to a never-interrupted run.
//! - **Kind 3** is written by the root crate's `Vibnn::save` on top of the
//!   [`WireWriter`] / [`write_params_payload`] primitives exported here.

use std::io;
use std::path::Path;

use vibnn_nn::Matrix;

use crate::{Bnn, BnnConfig, BnnParams};

/// File magic for every VIBNN checkpoint.
pub const MAGIC: [u8; 4] = *b"VIBN";
/// Current checkpoint format version.
pub const FORMAT_VERSION: u16 = 1;
/// Envelope kind: frozen `(µ, σ)` parameters ([`BnnParams`]).
pub const KIND_PARAMS: u8 = 1;
/// Envelope kind: full training state ([`Bnn`]).
pub const KIND_TRAINER: u8 = 2;
/// Envelope kind: deployed accelerator (written by the root crate).
pub const KIND_DEPLOY: u8 = 3;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the `VIBN` magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The file holds a different kind of checkpoint than requested.
    WrongKind {
        /// The kind the caller asked to load.
        expected: u8,
        /// The kind found in the file.
        found: u8,
    },
    /// The file ended before the payload its header promises.
    Truncated,
    /// The payload is structurally invalid (impossible shapes, trailing
    /// bytes, out-of-range values).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a VIBNN checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (max {FORMAT_VERSION})")
            }
            CheckpointError::WrongKind { expected, found } => {
                write!(f, "wrong checkpoint kind: expected {expected}, found {found}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Crash-safe file replacement: writes `bytes` to a temporary file in the
/// same directory as `path`, then `rename`s it into place.
///
/// The rename is the commit point, so a crash (or I/O error) mid-save can
/// never corrupt an existing checkpoint at `path` — the worst outcome is a
/// stale `.<name>.tmp.<pid>.<n>` file left next to it, which is harmless
/// to delete. Temp names carry the process id *and* a process-wide
/// counter, so concurrent saves to the same path never share a temp file.
/// Every checkpoint writer in the workspace ([`BnnParams::save`],
/// [`Bnn::save`], and the root crate's `Vibnn::save`) goes through here.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the temporary file cannot be written or
/// renamed; the temporary file is removed on failure, `path` is untouched.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), CheckpointError> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            CheckpointError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("checkpoint path {} has no file name", path.display()),
            ))
        })?
        .to_os_string();
    // Same directory as the target, so the rename never crosses a
    // filesystem boundary (cross-device renames are not atomic).
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(&file_name);
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let write_then_rename = (|| {
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write_then_rename {
        std::fs::remove_file(&tmp).ok();
        return Err(CheckpointError::Io(e));
    }
    Ok(())
}

/// Default cap on a framed message's length, in bytes (1 MiB). Generous
/// for every message the workspace frames today; streams carrying a
/// larger length prefix are treated as corrupt rather than trusted.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Writes one length-prefixed frame: a `u32` little-endian byte count
/// followed by the envelope bytes, then flushes.
///
/// This is the unit of transfer for the root crate's ingestion protocol;
/// the framed payload is a standard [`WireWriter`] envelope
/// (magic/version/kind), so a stream of frames is self-describing the
/// same way checkpoint files are.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] if `envelope` is empty or longer than
/// `u32::MAX` bytes (neither is ever a valid frame);
/// [`CheckpointError::Io`] if the underlying write or flush fails.
pub fn write_frame<W: io::Write>(w: &mut W, envelope: &[u8]) -> Result<(), CheckpointError> {
    let len = u32::try_from(envelope.len())
        .map_err(|_| CheckpointError::Corrupt(format!("frame of {} bytes", envelope.len())))?;
    if len == 0 {
        return Err(CheckpointError::Corrupt("zero-length frame".into()));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(envelope)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame written by [`write_frame`].
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary, before any prefix byte) — the peer closed between messages.
/// The length prefix is validated **before** any payload allocation:
/// zero and anything above `max_len` are rejected as
/// [`CheckpointError::Corrupt`], so a hostile prefix can never drive an
/// allocation.
///
/// # Errors
///
/// - [`CheckpointError::Truncated`] — the stream ended mid-prefix or
///   mid-payload.
/// - [`CheckpointError::Corrupt`] — zero or oversized length prefix.
/// - [`CheckpointError::Io`] — any other read failure (including read
///   timeouts on sockets).
pub fn read_frame<R: io::Read>(r: &mut R, max_len: u32) -> Result<Option<Vec<u8>>, CheckpointError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(CheckpointError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CheckpointError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(CheckpointError::Corrupt("zero-length frame".into()));
    }
    if len > max_len {
        return Err(CheckpointError::Corrupt(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e)
        }
    })?;
    Ok(Some(buf))
}

/// Little-endian byte-stream writer producing one checkpoint envelope.
///
/// Constructed with the envelope kind (which writes the magic, version,
/// and kind header); the caller then appends the payload and calls
/// [`WireWriter::into_bytes`].
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Starts an envelope of the given kind.
    pub fn new(kind: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.push(kind);
        Self { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u32` (checkpoint dimensions are < 2³²).
    ///
    /// # Panics
    ///
    /// Panics if `v` does not fit in a `u32`.
    pub fn dim(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("checkpoint dimension exceeds u32"));
    }

    /// Appends a raw `f32` slice (no length prefix — lengths are implied
    /// by previously written shape information).
    pub fn f32s(&mut self, vals: &[f32]) {
        self.buf.reserve(vals.len() * 4);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes verbatim (no length prefix — lengths are implied
    /// or written separately by the caller).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Finishes the envelope.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte-stream reader over one checkpoint envelope.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Opens an envelope, verifying magic, version, and kind.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
    /// [`CheckpointError::WrongKind`], or [`CheckpointError::Truncated`].
    pub fn open(bytes: &'a [u8], expected_kind: u8) -> Result<Self, CheckpointError> {
        let (kind, r) = Self::open_any(bytes)?;
        if kind != expected_kind {
            return Err(CheckpointError::WrongKind {
                expected: expected_kind,
                found: kind,
            });
        }
        Ok(r)
    }

    /// Opens an envelope of any kind, verifying magic and version, and
    /// returns the kind alongside the positioned reader — the dispatch
    /// entry point for protocols multiplexing several kinds on one
    /// stream (e.g. the root crate's ingestion protocol).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
    /// or [`CheckpointError::Truncated`].
    pub fn open_any(bytes: &'a [u8]) -> Result<(u8, Self), CheckpointError> {
        let mut r = Self { buf: bytes, pos: 0 };
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u16()?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let kind = r.u8()?;
        Ok((kind, r))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes left unread — the bound a decoder checks a length field
    /// against before it reserves memory for that many items.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> Result<i32, CheckpointError> {
        Ok(i32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a dimension written by [`WireWriter::dim`].
    pub fn dim(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.u32()? as usize)
    }

    /// Reads a count (written by [`WireWriter::dim`]) of items that each
    /// take at least `min_bytes` of the payload, and refuses one the
    /// unread bytes cannot hold — so a hostile length field never sizes
    /// an allocation beyond the input.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the count itself is cut off;
    /// [`CheckpointError::Corrupt`] if `count × min_bytes` exceeds
    /// [`Self::remaining`].
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CheckpointError> {
        let count = self.dim()?;
        if count.saturating_mul(min_bytes) > self.remaining() {
            return Err(CheckpointError::Corrupt(format!(
                "{count} items cannot fit in {} bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads `n` raw bytes (written by [`WireWriter::raw`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.bytes(n)
    }

    /// Reads `n` consecutive `f32` values.
    pub fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.bytes(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if trailing bytes remain.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Reads the layer-size header common to every payload: `L` then `L + 1`
/// sizes, all required positive. Every payload goes on to hold each
/// layer's four tensors (`i·o` weights and `o` biases, twice), so sizes
/// whose tensors overrun the unread bytes are refused as
/// [`CheckpointError::Truncated`] before anything is sized from them.
fn read_sizes(r: &mut WireReader<'_>) -> Result<Vec<usize>, CheckpointError> {
    let layers = r.count(4)?;
    if layers == 0 {
        return Err(CheckpointError::Corrupt("zero layers".into()));
    }
    if layers > 1 << 16 {
        return Err(CheckpointError::Corrupt(format!(
            "implausible layer count {layers}"
        )));
    }
    let mut sizes = Vec::with_capacity(layers + 1);
    for _ in 0..=layers {
        let s = r.dim()?;
        if s == 0 {
            return Err(CheckpointError::Corrupt("zero layer size".into()));
        }
        sizes.push(s);
    }
    let tensor_bytes = sizes.windows(2).try_fold(0usize, |total, p| {
        let floats = p[0].checked_add(1)?.checked_mul(p[1])?.checked_mul(2)?;
        total.checked_add(floats.checked_mul(4)?)
    });
    if tensor_bytes.map_or(true, |n| n > r.remaining()) {
        return Err(CheckpointError::Truncated);
    }
    Ok(sizes)
}

fn write_sizes(w: &mut WireWriter, sizes: &[usize]) {
    w.dim(sizes.len() - 1);
    for &s in sizes {
        w.dim(s);
    }
}

/// Appends a [`BnnParams`] payload (sizes, then per layer `weight_mu`,
/// `weight_sigma`, `bias_mu`, `bias_sigma`) to an open envelope. Exported
/// so the root crate's deployment checkpoints embed the identical layout.
pub fn write_params_payload(w: &mut WireWriter, params: &BnnParams) {
    write_sizes(w, &params.layer_sizes());
    for l in 0..params.layers() {
        w.f32s(params.weight_mu[l].data());
        w.f32s(params.weight_sigma[l].data());
        w.f32s(&params.bias_mu[l]);
        w.f32s(&params.bias_sigma[l]);
    }
}

/// Reads a [`BnnParams`] payload written by [`write_params_payload`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`] on
/// malformed payloads.
pub fn read_params_payload(r: &mut WireReader<'_>) -> Result<BnnParams, CheckpointError> {
    let sizes = read_sizes(r)?;
    let layers = sizes.len() - 1;
    let mut params = BnnParams {
        weight_mu: Vec::with_capacity(layers),
        weight_sigma: Vec::with_capacity(layers),
        bias_mu: Vec::with_capacity(layers),
        bias_sigma: Vec::with_capacity(layers),
    };
    for l in 0..layers {
        let (i, o) = (sizes[l], sizes[l + 1]);
        params
            .weight_mu
            .push(Matrix::from_vec(i, o, r.f32_vec(i * o)?));
        params
            .weight_sigma
            .push(Matrix::from_vec(i, o, r.f32_vec(i * o)?));
        params.bias_mu.push(r.f32_vec(o)?);
        params.bias_sigma.push(r.f32_vec(o)?);
    }
    Ok(params)
}

impl BnnParams {
    /// Serializes the snapshot as a kind-1 checkpoint envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(KIND_PARAMS);
        write_params_payload(&mut w, self);
        w.into_bytes()
    }

    /// Parses a kind-1 envelope produced by [`BnnParams::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = WireReader::open(bytes, KIND_PARAMS)?;
        let params = read_params_payload(&mut r)?;
        r.finish()?;
        Ok(params)
    }

    /// Writes the snapshot to `path` (see the module docs for the format)
    /// via [`atomic_write`], so an interrupted save never corrupts an
    /// existing file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Loads a snapshot written by [`BnnParams::save`].
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] on I/O failure or malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

impl Bnn {
    /// Serializes the full training state as a kind-2 envelope: config,
    /// raw `(µ, ρ)` tensors, Adam moments and step counter, the training
    /// ε step counter, and the shuffle position.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(KIND_TRAINER);
        let cfg = &self.cfg;
        write_sizes(&mut w, cfg.layer_sizes());
        w.f32(cfg.lr());
        w.f64(cfg.prior().std());
        w.f32(cfg.sigma_init());
        w.f32(cfg.kl_weight());
        w.u64(self.seed);
        w.u64(self.step);
        w.u64(self.shuffle_draws);
        w.u64(self.epochs_trained);
        for layer in &self.layers {
            w.f32s(layer.mu().data());
            w.f32s(layer.rho().data());
            w.f32s(layer.bias_mu());
            w.f32s(layer.bias_rho());
        }
        // Adam: current (possibly scheduled) rate, step, per-slot moments.
        w.f32(self.opt.lr());
        w.i32(self.opt.step_count());
        w.dim(self.opt.slot_count());
        for slot in 0..self.opt.slot_count() {
            let (m, v) = self.opt.slot_moments(slot);
            w.dim(m.len());
            w.f32s(m);
            w.f32s(v);
        }
        w.into_bytes()
    }

    /// Reconstructs a [`Bnn`] from a kind-2 envelope. The result trains on
    /// **bit-identically** to the network that was saved: same parameters,
    /// same optimizer moments, same ε substreams, same epoch shuffles.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = WireReader::open(bytes, KIND_TRAINER)?;
        let sizes = read_sizes(&mut r)?;
        let lr = r.f32()?;
        let prior_std = r.f64()?;
        let sigma_init = r.f32()?;
        let kl_weight = r.f32()?;
        if !(lr.is_finite() && lr > 0.0) {
            return Err(CheckpointError::Corrupt(format!("bad base lr {lr}")));
        }
        if !(sigma_init.is_finite() && sigma_init > 0.0) {
            return Err(CheckpointError::Corrupt(format!(
                "bad sigma_init {sigma_init}"
            )));
        }
        if !(kl_weight.is_finite() && kl_weight >= 0.0) {
            return Err(CheckpointError::Corrupt(format!(
                "bad kl_weight {kl_weight}"
            )));
        }
        if !(prior_std.is_finite() && prior_std > 0.0) {
            return Err(CheckpointError::Corrupt(format!(
                "bad prior std {prior_std}"
            )));
        }
        let cfg = BnnConfig::new(&sizes)
            .with_lr(lr)
            .with_prior_std(prior_std)
            .with_sigma_init(sigma_init)
            .with_kl_weight(kl_weight);
        let seed = r.u64()?;
        let step = r.u64()?;
        let shuffle_draws = r.u64()?;
        let epochs_trained = r.u64()?;
        // Rebuild the skeleton (layer shapes, optimizer slots, RNGs from
        // the seed), then overwrite every tensor with the checkpoint.
        let mut bnn = Bnn::new(cfg, seed);
        for l in 0..sizes.len() - 1 {
            let (i, o) = (sizes[l], sizes[l + 1]);
            let mu = Matrix::from_vec(i, o, r.f32_vec(i * o)?);
            let rho = Matrix::from_vec(i, o, r.f32_vec(i * o)?);
            let bias_mu = r.f32_vec(o)?;
            let bias_rho = r.f32_vec(o)?;
            bnn.layers[l].restore_params(mu, rho, bias_mu, bias_rho);
        }
        let adam_lr = r.f32()?;
        let adam_t = r.i32()?;
        // A slot is its length, then at least one `m` and one `v` value.
        let slots = r.count(12)?;
        let mut moments = Vec::with_capacity(slots);
        for _ in 0..slots {
            let len = r.dim()?;
            let m = r.f32_vec(len)?;
            let v = r.f32_vec(len)?;
            moments.push((m, v));
        }
        r.finish()?;
        bnn.opt
            .restore_state(adam_lr, adam_t, moments)
            .map_err(CheckpointError::Corrupt)?;
        bnn.step = step;
        bnn.shuffle_draws = shuffle_draws;
        bnn.epochs_trained = epochs_trained;
        // `train_eps` is reconstruction-exact from the seed (it is only
        // forked, never consumed); the shuffle generator jumps to its
        // exact position in O(1), so even an absurd (corrupt) draw count
        // cannot stall the loader.
        bnn.shuffle_rng.skip_uniforms(shuffle_draws);
        Ok(bnn)
    }

    /// Writes the full training state to `path` via [`atomic_write`], so
    /// an interrupted save never corrupts an existing file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Loads a training checkpoint written by [`Bnn::save`].
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] on I/O failure or malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibnn_nn::GaussianInit;

    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = GaussianInit::new(seed);
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut s = 0.0;
            for c in 0..3 {
                let v = rng.next_gaussian() as f32;
                x[(r, c)] = v;
                s += v;
            }
            y.push(usize::from(s > 0.0));
        }
        (x, y)
    }

    #[test]
    fn params_round_trip_is_bit_exact() {
        let bnn = Bnn::new(BnnConfig::new(&[3, 5, 2]), 41);
        let p = bnn.params();
        let q = BnnParams::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(q.layer_sizes(), p.layer_sizes());
        for l in 0..p.layers() {
            assert_eq!(p.weight_mu[l].data(), q.weight_mu[l].data());
            assert_eq!(p.weight_sigma[l].data(), q.weight_sigma[l].data());
            assert_eq!(p.bias_mu[l], q.bias_mu[l]);
            assert_eq!(p.bias_sigma[l], q.bias_sigma[l]);
        }
    }

    #[test]
    fn trainer_round_trip_resumes_bit_identically_at_batch_level() {
        let (x, y) = toy_data(48, 3);
        let mut a = Bnn::new(BnnConfig::new(&[3, 6, 2]).with_lr(0.02), 5);
        for _ in 0..4 {
            a.train_batch_mc(&x, &y, 2);
        }
        let mut b = Bnn::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.steps_taken(), a.steps_taken());
        for _ in 0..3 {
            let la = a.train_batch_mc(&x, &y, 2);
            let lb = b.train_batch_mc(&x, &y, 2);
            assert_eq!(la.0.to_bits(), lb.0.to_bits(), "total loss diverged");
            assert_eq!(la.1.to_bits(), lb.1.to_bits(), "nll diverged");
            assert_eq!(la.2.to_bits(), lb.2.to_bits(), "kl diverged");
        }
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.mu().data(), lb.mu().data());
            assert_eq!(la.rho().data(), lb.rho().data());
        }
    }

    #[test]
    fn trainer_round_trip_resumes_epoch_shuffles_exactly() {
        let (x, y) = toy_data(32, 7);
        let mut a = Bnn::new(BnnConfig::new(&[3, 4, 2]).with_lr(0.02), 9);
        a.train_epoch(&x, &y, 8);
        a.set_lr(0.004); // a mid-run schedule change must survive the trip
        let mut b = Bnn::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.lr(), a.lr());
        for _ in 0..2 {
            let ra = a.train_epoch(&x, &y, 8);
            let rb = b.train_epoch(&x, &y, 8);
            assert_eq!(ra, rb, "epoch reports diverged after resume");
        }
    }

    #[test]
    fn resumed_lr_schedule_continues_instead_of_restarting() {
        use crate::{LrSchedule, TrainSchedule};
        let (x, y) = toy_data(32, 11);
        let sched = |epochs| TrainSchedule {
            epochs,
            lr: LrSchedule::StepDecay {
                every: 1,
                gamma: 0.5,
            },
            early_stop: None,
        };
        // Uninterrupted: 4 scheduled epochs.
        let mut full = Bnn::new(BnnConfig::new(&[3, 4, 2]).with_lr(0.02), 13);
        let full_run = full.train_mc_scheduled(&x, &y, 8, 1, 1, &sched(4));
        // Interrupted: 2 epochs, checkpoint, load, 2 more.
        let mut first = Bnn::new(BnnConfig::new(&[3, 4, 2]).with_lr(0.02), 13);
        let first_run = first.train_mc_scheduled(&x, &y, 8, 1, 1, &sched(2));
        let mut resumed = Bnn::from_bytes(&first.to_bytes()).unwrap();
        assert_eq!(resumed.epochs_trained(), 2);
        let resumed_run = resumed.train_mc_scheduled(&x, &y, 8, 1, 1, &sched(2));
        // The schedule continued (0.02·γ³ on the last epoch), and the
        // stitched run matches the uninterrupted one bit for bit.
        assert_eq!(resumed_run.final_lr, full_run.final_lr);
        let stitched: Vec<_> = first_run
            .reports
            .iter()
            .chain(&resumed_run.reports)
            .copied()
            .collect();
        assert_eq!(stitched, full_run.reports);
        for (a, b) in full.layers().iter().zip(resumed.layers()) {
            assert_eq!(a.mu().data(), b.mu().data());
            assert_eq!(a.rho().data(), b.rho().data());
        }
    }

    #[test]
    fn atomic_save_survives_a_simulated_crash_mid_write() {
        // Regression: `save` used to write the target file in place, so a
        // crash mid-write could leave a truncated checkpoint. The atomic
        // writer goes through a temp file + rename, so the worst a crash
        // can leave behind is a stale temp file — the original stays
        // loadable.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("vibnn_atomic_save_{}.ckpt", std::process::id()));
        let (x, y) = toy_data(16, 3);
        let mut bnn = Bnn::new(BnnConfig::new(&[3, 4, 2]).with_lr(0.02), 5);
        bnn.train_epoch(&x, &y, 8);
        bnn.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Simulate a crash during a later save: a truncated temp file is
        // left next to the checkpoint (the rename never happened).
        let tmp = path.with_file_name(format!(
            ".{}.tmp.{}.0",
            path.file_name().unwrap().to_string_lossy(),
            std::process::id()
        ));
        std::fs::write(&tmp, &good[..good.len() / 2]).unwrap();
        let loaded = Bnn::load(&path).expect("original checkpoint still loads");
        assert_eq!(loaded.to_bytes(), good);
        // A subsequent save goes through its own temp file (the counter
        // keeps concurrent/stale temps from colliding) and replaces the
        // target whole.
        bnn.train_epoch(&x, &y, 8);
        bnn.save(&path).unwrap();
        assert_eq!(Bnn::load(&path).unwrap().to_bytes(), bnn.to_bytes());
        std::fs::remove_file(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_rejects_pathless_targets_and_leaves_no_droppings() {
        assert!(matches!(
            atomic_write(Path::new("/"), b"x"),
            Err(CheckpointError::Io(_))
        ));
        // A failing write (unwritable directory) must not leave a temp
        // file behind.
        let missing = Path::new("/nonexistent_vibnn_dir/ckpt.bin");
        assert!(matches!(
            atomic_write(missing, b"x"),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn frame_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, &[0u8; 300]).unwrap();
        let mut cur = io::Cursor::new(&buf);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_LEN).unwrap().as_deref(),
            Some(b"first".as_slice())
        );
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_LEN).unwrap().as_deref(),
            Some([0u8; 300].as_slice())
        );
        // EOF exactly at a frame boundary is a clean close, not an error.
        assert!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().is_none());
    }

    #[test]
    fn frame_rejects_hostile_prefixes_before_allocating() {
        // Empty frames cannot be written or read.
        assert!(matches!(
            write_frame(&mut Vec::new(), b""),
            Err(CheckpointError::Corrupt(_))
        ));
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&zero[..]), MAX_FRAME_LEN),
            Err(CheckpointError::Corrupt(_))
        ));
        // A length prefix above the cap is corrupt, even though the
        // stream could never deliver the promised bytes anyway.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&huge[..]), MAX_FRAME_LEN),
            Err(CheckpointError::Corrupt(_))
        ));
        // Truncation mid-prefix and mid-payload are both typed.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&[7u8, 0][..]), MAX_FRAME_LEN),
            Err(CheckpointError::Truncated)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cur = io::Cursor::new(&buf);
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME_LEN),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn open_any_dispatches_on_kind() {
        let mut w = WireWriter::new(KIND_PARAMS);
        w.u64(7);
        w.raw(b"xyz");
        let bytes = w.into_bytes();
        let (kind, mut r) = WireReader::open_any(&bytes).unwrap();
        assert_eq!(kind, KIND_PARAMS);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.raw(3).unwrap(), b"xyz");
        r.finish().unwrap();
        assert!(matches!(
            WireReader::open_any(b"NOPE\x01\x00\x01"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn header_errors_are_typed() {
        let bnn = Bnn::new(BnnConfig::new(&[3, 4, 2]), 1);
        let bytes = bnn.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Bnn::from_bytes(&bad),
            Err(CheckpointError::BadMagic)
        ));
        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            Bnn::from_bytes(&bad),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
        // Wrong kind: a params file is not a trainer file.
        let params = bnn.params().to_bytes();
        assert!(matches!(
            Bnn::from_bytes(&params),
            Err(CheckpointError::WrongKind {
                expected: KIND_TRAINER,
                found: KIND_PARAMS
            })
        ));
        // Truncation anywhere in the payload.
        assert!(matches!(
            Bnn::from_bytes(&bytes[..bytes.len() - 5]),
            Err(CheckpointError::Truncated)
        ));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            Bnn::from_bytes(&bad),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
