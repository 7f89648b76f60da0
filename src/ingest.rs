//! Network ingestion: a blocking TCP front-end for the
//! [`ClusterEngine`] speaking a length-prefixed binary protocol.
//!
//! The paper's accelerator serves one caller in one process; the
//! ROADMAP's scale target is external traffic. This module is the wire
//! between them: an [`IngestServer`] accepts TCP connections, decodes
//! requests, admits them into the cluster (lane and deadline included),
//! and streams typed replies back — including typed errors such as
//! [`VibnnError::QueueFull`] with its depth/capacity payload, so remote
//! clients can do informed backoff exactly like in-process callers.
//!
//! # Frame format
//!
//! Every message — request or reply — is one *frame*:
//!
//! ```text
//! ┌────────────┬──────────────────────────────────────────────┐
//! │ u32 LE len │ envelope: "VIBN" magic, u16 version, u8 kind, │
//! │            │ kind-specific payload (all little-endian)     │
//! └────────────┴──────────────────────────────────────────────┘
//! ```
//!
//! The envelope is the same `WireWriter`/`WireReader` format the
//! checkpoint files use ([`vibnn_bnn::checkpoint`]); the frame layer
//! ([`vibnn_bnn::checkpoint::write_frame`] /
//! [`vibnn_bnn::checkpoint::read_frame`]) adds the length prefix,
//! validated against a cap before any allocation. Request kinds are
//! `0x10..=0x13`, reply kinds `0x20..=0x23` plus `0x2F` for typed
//! errors — see the `KIND_*` constants.
//!
//! # Metrics
//!
//! A [`Request::Metrics`] is answered with a [`MetricsFrame`]: named
//! values, each a count, a gauge or a bucket vector, some of them
//! labelled (the per-replica costs carry `replica` and `backend`).
//! [`IngestMetrics::frame`] is the one list of them; the codec writes
//! every frame the same generic way, so adding a metric never touches
//! it.
//!
//! # Deadlines and lanes
//!
//! A request carries a [`Priority`] lane byte and a deadline in
//! microseconds **relative to server receipt** (`0` = no deadline); the
//! server converts it to an absolute instant and the cluster enforces it
//! at admission and at dequeue, always before any Monte Carlo work
//! ([`VibnnError::DeadlineExceeded`]). Lane scheduling is the cluster's
//! deterministic bounded-skip rule — see [`crate::cluster`].
//!
//! # Determinism
//!
//! The wire changes *transport*, never *answers*: `f32`/`f64` fields
//! travel as exact little-endian bytes, so a prediction served over TCP
//! is bit-identical to [`ClusterEngine::submit`] in-process
//! (`tests/ingest_determinism.rs` and `bench_ingest` both assert this).
//!
//! # Robustness
//!
//! A malformed frame (bad magic, zero or oversized length prefix,
//! truncation, unknown kind) gets a typed error reply where the stream
//! is still synchronized, or a clean disconnect where it is not; a
//! stalled client is dropped after the configured read timeout. One
//! misbehaving connection never affects another —
//! `tests/ingest_protocol.rs` is the fault-injection suite pinning this.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vibnn_bnn::checkpoint::{read_frame, write_frame, WireReader, WireWriter, MAX_FRAME_LEN};
use vibnn_bnn::CheckpointError;
use vibnn_grng::{StreamFork, ZigguratGrng};

use crate::backend::BackendCost;
use crate::cluster::{ClusterEngine, ClusterMetrics, Priority, SubmitOptions};
use crate::serve::ServeResult;
use crate::VibnnError;

/// Request kind: one feature row ([`Request::Predict`]).
pub const KIND_PREDICT: u8 = 0x10;
/// Request kind: several feature rows ([`Request::PredictBatch`]).
pub const KIND_PREDICT_BATCH: u8 = 0x11;
/// Request kind: server + cluster metrics snapshot ([`Request::Metrics`]).
pub const KIND_METRICS: u8 = 0x12;
/// Request kind: stop accepting and wind the server down
/// ([`Request::Shutdown`]).
pub const KIND_SHUTDOWN: u8 = 0x13;
/// Reply kind: one served prediction ([`Reply::Predict`]).
pub const KIND_PREDICT_REPLY: u8 = 0x20;
/// Reply kind: per-row outcomes for a batch ([`Reply::PredictBatch`]).
pub const KIND_PREDICT_BATCH_REPLY: u8 = 0x21;
/// Reply kind: metrics snapshot ([`Reply::Metrics`]).
pub const KIND_METRICS_REPLY: u8 = 0x22;
/// Reply kind: shutdown acknowledged ([`Reply::Shutdown`]).
pub const KIND_SHUTDOWN_REPLY: u8 = 0x23;
/// Reply kind: typed failure for the whole request ([`Reply::Error`]).
pub const KIND_ERROR_REPLY: u8 = 0x2F;

const LANE_INTERACTIVE: u8 = 0;
const LANE_BATCH: u8 = 1;

fn lane_code(p: Priority) -> u8 {
    match p {
        Priority::Interactive => LANE_INTERACTIVE,
        Priority::Batch => LANE_BATCH,
    }
}

fn lane_from_code(code: u8) -> Result<Priority, VibnnError> {
    match code {
        LANE_INTERACTIVE => Ok(Priority::Interactive),
        LANE_BATCH => Ok(Priority::Batch),
        other => Err(VibnnError::Protocol(format!("unknown lane byte {other}"))),
    }
}

fn protocol(e: CheckpointError) -> VibnnError {
    VibnnError::Protocol(e.to_string())
}

/// One decoded client request. `tag` is an opaque client-chosen
/// correlation value echoed verbatim in the matching reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict one feature row.
    Predict {
        /// Client correlation tag, echoed in the reply.
        tag: u64,
        /// Scheduling lane.
        priority: Priority,
        /// Deadline in microseconds after server receipt; `0` = none.
        deadline_micros: u64,
        /// The feature row.
        features: Vec<f32>,
    },
    /// Predict several rows in one request; the server pipelines the
    /// submissions so the cluster can micro-batch them.
    PredictBatch {
        /// Client correlation tag, echoed in the reply.
        tag: u64,
        /// Scheduling lane shared by every row.
        priority: Priority,
        /// Deadline in microseconds after server receipt; `0` = none.
        deadline_micros: u64,
        /// Row width; `features.len()` is a multiple of it.
        dim: usize,
        /// Row-major feature rows.
        features: Vec<f32>,
    },
    /// Fetch a [`MetricsFrame`] snapshot.
    Metrics {
        /// Client correlation tag, echoed in the reply.
        tag: u64,
    },
    /// Ask the server to stop accepting connections and wind down.
    Shutdown {
        /// Client correlation tag, echoed in the reply.
        tag: u64,
    },
}

impl Request {
    /// The client correlation tag.
    pub fn tag(&self) -> u64 {
        match self {
            Request::Predict { tag, .. }
            | Request::PredictBatch { tag, .. }
            | Request::Metrics { tag }
            | Request::Shutdown { tag } => *tag,
        }
    }
}

/// One server reply, correlated to its request by `tag`.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The served prediction for a [`Request::Predict`].
    Predict {
        /// Echo of the request tag.
        tag: u64,
        /// The prediction, bit-identical to the in-process path.
        result: ServeResult,
    },
    /// Per-row outcomes for a [`Request::PredictBatch`]: rows fail
    /// individually (e.g. [`WireError::QueueFull`] under backpressure)
    /// without failing the whole batch.
    PredictBatch {
        /// Echo of the request tag.
        tag: u64,
        /// One outcome per submitted row, in row order.
        rows: Vec<Result<ServeResult, WireError>>,
    },
    /// Snapshot for a [`Request::Metrics`].
    Metrics {
        /// Echo of the request tag.
        tag: u64,
        /// The snapshot.
        metrics: MetricsFrame,
    },
    /// Acknowledgement of a [`Request::Shutdown`]; the server stops
    /// accepting once this is sent.
    Shutdown {
        /// Echo of the request tag.
        tag: u64,
    },
    /// The whole request failed with a typed error.
    Error {
        /// Echo of the request tag (`0` when the request was too
        /// malformed to recover it).
        tag: u64,
        /// What went wrong.
        error: WireError,
    },
}

impl Reply {
    /// The echoed correlation tag.
    pub fn tag(&self) -> u64 {
        match self {
            Reply::Predict { tag, .. }
            | Reply::PredictBatch { tag, .. }
            | Reply::Metrics { tag, .. }
            | Reply::Shutdown { tag }
            | Reply::Error { tag, .. } => *tag,
        }
    }
}

/// A [`VibnnError`] as it travels over the wire — the variants a remote
/// client can act on, each with its payload intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Cluster backpressure; carries depth and capacity for informed
    /// backoff, exactly like [`VibnnError::QueueFull`].
    QueueFull {
        /// Requests queued when the submission was refused.
        depth: u64,
        /// The configured cluster queue capacity.
        capacity: u64,
    },
    /// The deadline expired before the request was served.
    DeadlineExceeded,
    /// The cluster (or server) has stopped serving.
    EngineStopped,
    /// The feature row has the wrong width.
    ShapeMismatch {
        /// The width the deployment requires.
        expected: u64,
        /// The width the request carried.
        got: u64,
    },
    /// A risk-tiered sampling policy refused to answer, exactly like
    /// [`VibnnError::Abstained`]; the decoder refuses payloads that do
    /// not fit its `u32` fields.
    Abstained {
        /// Monte Carlo samples spent before abstaining.
        samples_used: u64,
        /// Normalized entropy at refusal, in thousandths of the maximum.
        entropy_milli: u64,
    },
    /// The admission budget gate shed the request, exactly like
    /// [`VibnnError::BudgetExceeded`].
    BudgetExceeded {
        /// Predicted full-budget service time, microseconds.
        predicted_micros: u64,
        /// Time left until the deadline at admission, microseconds.
        remaining_micros: u64,
    },
    /// The peer violated the wire protocol.
    Protocol(String),
    /// Any other server-side failure, as display text.
    Other(String),
}

impl From<&VibnnError> for WireError {
    fn from(e: &VibnnError) -> Self {
        match e {
            VibnnError::QueueFull { depth, capacity } => WireError::QueueFull {
                depth: *depth as u64,
                capacity: *capacity as u64,
            },
            VibnnError::DeadlineExceeded => WireError::DeadlineExceeded,
            VibnnError::EngineStopped => WireError::EngineStopped,
            VibnnError::ShapeMismatch { expected, got, .. } => WireError::ShapeMismatch {
                expected: *expected as u64,
                got: *got as u64,
            },
            VibnnError::Abstained {
                samples_used,
                entropy_milli,
            } => WireError::Abstained {
                samples_used: u64::from(*samples_used),
                entropy_milli: u64::from(*entropy_milli),
            },
            VibnnError::BudgetExceeded {
                predicted_micros,
                remaining_micros,
            } => WireError::BudgetExceeded {
                predicted_micros: *predicted_micros,
                remaining_micros: *remaining_micros,
            },
            VibnnError::Protocol(why) => WireError::Protocol(why.clone()),
            other => WireError::Other(other.to_string()),
        }
    }
}

impl WireError {
    /// Converts back to the in-process error type on the client side.
    /// [`WireError::Other`] has no structured counterpart and maps to
    /// [`VibnnError::Protocol`] carrying the server's display text.
    pub fn into_vibnn(self) -> VibnnError {
        match self {
            WireError::QueueFull { depth, capacity } => VibnnError::QueueFull {
                depth: depth as usize,
                capacity: capacity as usize,
            },
            WireError::DeadlineExceeded => VibnnError::DeadlineExceeded,
            WireError::EngineStopped => VibnnError::EngineStopped,
            WireError::ShapeMismatch { expected, got } => VibnnError::ShapeMismatch {
                context: "request width",
                expected: expected as usize,
                got: got as usize,
            },
            WireError::Abstained {
                samples_used,
                entropy_milli,
            } => VibnnError::Abstained {
                samples_used: samples_used as u32,
                entropy_milli: entropy_milli as u32,
            },
            WireError::BudgetExceeded {
                predicted_micros,
                remaining_micros,
            } => VibnnError::BudgetExceeded {
                predicted_micros,
                remaining_micros,
            },
            WireError::Protocol(why) => VibnnError::Protocol(why),
            WireError::Other(why) => VibnnError::Protocol(format!("server-side error: {why}")),
        }
    }
}

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A cumulative or instantaneous integer count.
    Count(u64),
    /// A real-valued reading (a mean, or energy in nanojoules).
    Gauge(f64),
    /// A histogram's bucket counts, in bucket order.
    Buckets(Vec<u64>),
}

/// One named value of a [`MetricsFrame`]; `labels` are `(key, value)`
/// pairs telling apart values of the same name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// `(key, value)` labels; empty for a server-wide value.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A self-describing metrics snapshot: what a [`Request::Metrics`] is
/// answered with. Built by [`IngestMetrics::frame`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsFrame(pub Vec<Metric>);

impl MetricsFrame {
    /// The unlabelled value named `name`.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.0
            .iter()
            .find(|m| m.name == name && m.labels.is_empty())
            .map(|m| &m.value)
    }

    /// The unlabelled count named `name`; `None` if it is absent or not
    /// a [`MetricValue::Count`].
    pub fn count(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Count(v)) => Some(*v),
            _ => None,
        }
    }
}

/// A point-in-time server + cluster snapshot; its
/// [`frame`](Self::frame) is what the wire's [`Request::Metrics`]
/// reply carries.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestMetrics {
    /// The cluster's own snapshot.
    pub cluster: ClusterMetrics,
    /// Client connections open right now.
    pub connections_open: u64,
    /// Client connections accepted since start.
    pub connections_total: u64,
    /// Frames decoded into well-formed requests since start.
    pub requests_decoded: u64,
    /// Malformed frames or envelopes seen since start.
    pub protocol_errors: u64,
}

impl IngestMetrics {
    /// Every served value, once, as named metrics. The unlabelled
    /// `cost_*` values are cluster totals; the same names labelled with
    /// `replica` and `backend` are each replica's share.
    pub fn frame(&self) -> MetricsFrame {
        use MetricValue::{Buckets, Count, Gauge};
        let c = &self.cluster;
        let (u, s) = (&c.uncertainty, &c.sampling);
        let alive = c.replicas.iter().filter(|r| r.alive).count() as u64;
        let cost = |cost: &BackendCost| {
            [
                ("cost_cycles", Count(cost.cycles)),
                ("cost_energy_nj", Gauge(cost.energy_nj)),
                ("cost_samples", Count(cost.samples)),
            ]
        };
        let metric = |name: &str, labels, value| Metric {
            name: name.to_owned(),
            labels,
            value,
        };
        let server_wide = [
            ("queued", Count(c.queued as u64)),
            ("capacity", Count(c.capacity as u64)),
            ("submitted", Count(c.submitted)),
            ("served", Count(c.served)),
            ("served_interactive", Count(c.served_interactive)),
            ("served_batch", Count(c.served_batch)),
            ("rejected", Count(c.rejected)),
            ("deadline_expired", Count(c.deadline_expired)),
            ("cancelled", Count(c.cancelled)),
            ("replicas_alive", Count(alive)),
            ("connections_open", Count(self.connections_open)),
            ("connections_total", Count(self.connections_total)),
            ("requests_decoded", Count(self.requests_decoded)),
            ("protocol_errors", Count(self.protocol_errors)),
            ("uncertainty_count", Count(u.count)),
            ("entropy_mean", Gauge(u.entropy_mean)),
            ("mc_std_mean", Gauge(u.mc_std_mean)),
            ("entropy_histogram", Buckets(u.entropy_histogram.clone())),
            ("samples_used_total", Count(s.samples_used_total)),
            ("mean_samples", Gauge(s.mean_samples)),
            ("samples_histogram", Buckets(s.histogram.clone())),
            ("abstained", Count(s.abstained)),
            ("budget_shed", Count(s.budget_shed)),
        ]
        .into_iter()
        .chain(cost(&c.cost))
        .map(|(name, value)| metric(name, Vec::new(), value));
        let per_replica = c.replicas.iter().enumerate().flat_map(|(i, r)| {
            let labels = vec![
                ("replica".to_owned(), i.to_string()),
                ("backend".to_owned(), r.backend.to_string()),
            ];
            cost(&r.cost).map(move |(name, value)| metric(name, labels.clone(), value))
        });
        MetricsFrame(server_wide.chain(per_replica).collect())
    }
}

fn write_lane_deadline(w: &mut WireWriter, tag: u64, priority: Priority, deadline_micros: u64) {
    w.u64(tag);
    w.u8(lane_code(priority));
    w.u64(deadline_micros);
}

fn write_result(w: &mut WireWriter, r: &ServeResult) {
    w.u64(r.id);
    w.dim(r.proba.len());
    w.f32s(&r.proba);
    w.u64(r.argmax as u64);
    w.f64(r.entropy);
    w.f64(r.mc_std);
    w.u64(u64::from(r.samples_used));
}

/// Reads a `u64` field whose in-process counterpart is a `u32`,
/// refusing values that would not survive the narrowing.
fn read_u32_field(r: &mut WireReader<'_>, what: &str) -> Result<u32, VibnnError> {
    u32::try_from(r.u64().map_err(protocol)?)
        .map_err(|_| VibnnError::Protocol(format!("{what} overflows u32")))
}

/// Reads a count of items that each take at least `min_bytes` on the
/// wire, refusing one the unread bytes cannot hold — so a hostile count
/// never reserves memory.
fn read_result(r: &mut WireReader<'_>) -> Result<ServeResult, VibnnError> {
    let id = r.u64().map_err(protocol)?;
    let classes = r.dim().map_err(protocol)?;
    let proba = r.f32_vec(classes).map_err(protocol)?;
    let argmax = r.u64().map_err(protocol)? as usize;
    let entropy = r.f64().map_err(protocol)?;
    let mc_std = r.f64().map_err(protocol)?;
    let samples_used = read_u32_field(r, "samples_used")?;
    Ok(ServeResult {
        id,
        proba,
        argmax,
        entropy,
        mc_std,
        samples_used,
    })
}

fn write_string(w: &mut WireWriter, s: &str) {
    w.dim(s.len());
    w.raw(s.as_bytes());
}

fn read_string(r: &mut WireReader<'_>) -> Result<String, VibnnError> {
    let len = r.dim().map_err(protocol)?;
    let bytes = r.raw(len).map_err(protocol)?;
    Ok(String::from_utf8_lossy(bytes).into_owned())
}

fn write_wire_error(w: &mut WireWriter, e: &WireError) {
    match e {
        WireError::QueueFull { depth, capacity } => {
            w.u8(1);
            w.u64(*depth);
            w.u64(*capacity);
        }
        WireError::DeadlineExceeded => w.u8(2),
        WireError::EngineStopped => w.u8(3),
        WireError::ShapeMismatch { expected, got } => {
            w.u8(4);
            w.u64(*expected);
            w.u64(*got);
        }
        WireError::Protocol(why) => {
            w.u8(5);
            write_string(w, why);
        }
        WireError::Other(why) => {
            w.u8(6);
            write_string(w, why);
        }
        WireError::Abstained {
            samples_used,
            entropy_milli,
        } => {
            w.u8(7);
            w.u64(*samples_used);
            w.u64(*entropy_milli);
        }
        WireError::BudgetExceeded {
            predicted_micros,
            remaining_micros,
        } => {
            w.u8(8);
            w.u64(*predicted_micros);
            w.u64(*remaining_micros);
        }
    }
}

fn read_wire_error(r: &mut WireReader<'_>) -> Result<WireError, VibnnError> {
    Ok(match r.u8().map_err(protocol)? {
        1 => WireError::QueueFull {
            depth: r.u64().map_err(protocol)?,
            capacity: r.u64().map_err(protocol)?,
        },
        2 => WireError::DeadlineExceeded,
        3 => WireError::EngineStopped,
        4 => WireError::ShapeMismatch {
            expected: r.u64().map_err(protocol)?,
            got: r.u64().map_err(protocol)?,
        },
        5 => WireError::Protocol(read_string(r)?),
        6 => WireError::Other(read_string(r)?),
        7 => WireError::Abstained {
            samples_used: u64::from(read_u32_field(r, "samples_used")?),
            entropy_milli: u64::from(read_u32_field(r, "entropy_milli")?),
        },
        8 => WireError::BudgetExceeded {
            predicted_micros: r.u64().map_err(protocol)?,
            remaining_micros: r.u64().map_err(protocol)?,
        },
        code => return Err(VibnnError::Protocol(format!("unknown error code {code}"))),
    })
}

/// Writes a frame as a metric count, then per metric its name, its
/// labels, a kind byte (0 count, 1 gauge, 2 buckets) and the value.
fn write_metrics(w: &mut WireWriter, frame: &MetricsFrame) {
    w.dim(frame.0.len());
    for m in &frame.0 {
        write_string(w, &m.name);
        w.dim(m.labels.len());
        for (key, value) in &m.labels {
            write_string(w, key);
            write_string(w, value);
        }
        match &m.value {
            MetricValue::Count(v) => {
                w.u8(0);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(1);
                w.f64(*v);
            }
            MetricValue::Buckets(buckets) => {
                w.u8(2);
                w.dim(buckets.len());
                for &b in buckets {
                    w.u64(b);
                }
            }
        }
    }
}

fn read_metrics(r: &mut WireReader<'_>) -> Result<MetricsFrame, VibnnError> {
    // Smallest encodings: a metric is an empty name, no labels, a kind
    // byte and an empty bucket list; a label is two empty strings.
    let metrics = (0..r.count(13).map_err(protocol)?)
        .map(|_| {
            let name = read_string(r)?;
            let labels = (0..r.count(8).map_err(protocol)?)
                .map(|_| Ok((read_string(r)?, read_string(r)?)))
                .collect::<Result<_, VibnnError>>()?;
            let value = match r.u8().map_err(protocol)? {
                0 => MetricValue::Count(r.u64().map_err(protocol)?),
                1 => MetricValue::Gauge(r.f64().map_err(protocol)?),
                2 => MetricValue::Buckets(
                    (0..r.count(8).map_err(protocol)?)
                        .map(|_| r.u64().map_err(protocol))
                        .collect::<Result<_, _>>()?,
                ),
                kind => return Err(VibnnError::Protocol(format!("unknown metric kind {kind}"))),
            };
            Ok(Metric {
                name,
                labels,
                value,
            })
        })
        .collect::<Result<_, VibnnError>>()?;
    Ok(MetricsFrame(metrics))
}

/// Serializes a request into one wire envelope (without the frame
/// length prefix — [`vibnn_bnn::checkpoint::write_frame`] adds it).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Predict {
            tag,
            priority,
            deadline_micros,
            features,
        } => {
            let mut w = WireWriter::new(KIND_PREDICT);
            write_lane_deadline(&mut w, *tag, *priority, *deadline_micros);
            w.dim(features.len());
            w.f32s(features);
            w.into_bytes()
        }
        Request::PredictBatch {
            tag,
            priority,
            deadline_micros,
            dim,
            features,
        } => {
            let mut w = WireWriter::new(KIND_PREDICT_BATCH);
            write_lane_deadline(&mut w, *tag, *priority, *deadline_micros);
            w.dim(*dim);
            let rows = if *dim == 0 { 0 } else { features.len() / dim };
            w.dim(rows);
            w.f32s(&features[..rows * *dim]);
            w.into_bytes()
        }
        Request::Metrics { tag } => {
            let mut w = WireWriter::new(KIND_METRICS);
            w.u64(*tag);
            w.into_bytes()
        }
        Request::Shutdown { tag } => {
            let mut w = WireWriter::new(KIND_SHUTDOWN);
            w.u64(*tag);
            w.into_bytes()
        }
    }
}

/// Parses one wire envelope into a [`Request`]. Never panics on
/// arbitrary input: every malformation is a typed
/// [`VibnnError::Protocol`] (`tests/property.rs` fuzzes this).
pub fn decode_request(bytes: &[u8]) -> Result<Request, VibnnError> {
    let (kind, mut r) = WireReader::open_any(bytes).map_err(protocol)?;
    let req = match kind {
        KIND_PREDICT => {
            let tag = r.u64().map_err(protocol)?;
            let priority = lane_from_code(r.u8().map_err(protocol)?)?;
            let deadline_micros = r.u64().map_err(protocol)?;
            let dim = r.dim().map_err(protocol)?;
            let features = r.f32_vec(dim).map_err(protocol)?;
            Request::Predict {
                tag,
                priority,
                deadline_micros,
                features,
            }
        }
        KIND_PREDICT_BATCH => {
            let tag = r.u64().map_err(protocol)?;
            let priority = lane_from_code(r.u8().map_err(protocol)?)?;
            let deadline_micros = r.u64().map_err(protocol)?;
            let dim = r.dim().map_err(protocol)?;
            let rows = r.dim().map_err(protocol)?;
            if dim == 0 && rows > 0 {
                return Err(VibnnError::Protocol("zero-width batch rows".into()));
            }
            let count = rows
                .checked_mul(dim)
                .ok_or_else(|| VibnnError::Protocol("batch size overflows".into()))?;
            let features = r.f32_vec(count).map_err(protocol)?;
            Request::PredictBatch {
                tag,
                priority,
                deadline_micros,
                dim,
                features,
            }
        }
        KIND_METRICS => Request::Metrics {
            tag: r.u64().map_err(protocol)?,
        },
        KIND_SHUTDOWN => Request::Shutdown {
            tag: r.u64().map_err(protocol)?,
        },
        other => {
            return Err(VibnnError::Protocol(format!(
                "unknown request kind {other:#04x}"
            )))
        }
    };
    r.finish().map_err(protocol)?;
    Ok(req)
}

/// Serializes a reply into one wire envelope (no frame prefix).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Predict { tag, result } => {
            let mut w = WireWriter::new(KIND_PREDICT_REPLY);
            w.u64(*tag);
            write_result(&mut w, result);
            w.into_bytes()
        }
        Reply::PredictBatch { tag, rows } => {
            let mut w = WireWriter::new(KIND_PREDICT_BATCH_REPLY);
            w.u64(*tag);
            w.dim(rows.len());
            for row in rows {
                match row {
                    Ok(result) => {
                        w.u8(1);
                        write_result(&mut w, result);
                    }
                    Err(e) => {
                        w.u8(0);
                        write_wire_error(&mut w, e);
                    }
                }
            }
            w.into_bytes()
        }
        Reply::Metrics { tag, metrics } => {
            let mut w = WireWriter::new(KIND_METRICS_REPLY);
            w.u64(*tag);
            write_metrics(&mut w, metrics);
            w.into_bytes()
        }
        Reply::Shutdown { tag } => {
            let mut w = WireWriter::new(KIND_SHUTDOWN_REPLY);
            w.u64(*tag);
            w.into_bytes()
        }
        Reply::Error { tag, error } => {
            let mut w = WireWriter::new(KIND_ERROR_REPLY);
            w.u64(*tag);
            write_wire_error(&mut w, error);
            w.into_bytes()
        }
    }
}

/// Parses one wire envelope into a [`Reply`]. Never panics on
/// arbitrary input.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, VibnnError> {
    let (kind, mut r) = WireReader::open_any(bytes).map_err(protocol)?;
    let reply = match kind {
        KIND_PREDICT_REPLY => Reply::Predict {
            tag: r.u64().map_err(protocol)?,
            result: read_result(&mut r)?,
        },
        KIND_PREDICT_BATCH_REPLY => {
            let tag = r.u64().map_err(protocol)?;
            // A row is at least a flag byte and an error code.
            let count = r.count(2).map_err(protocol)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(match r.u8().map_err(protocol)? {
                    1 => Ok(read_result(&mut r)?),
                    0 => Err(read_wire_error(&mut r)?),
                    flag => {
                        return Err(VibnnError::Protocol(format!("bad row flag {flag}")));
                    }
                });
            }
            Reply::PredictBatch { tag, rows }
        }
        KIND_METRICS_REPLY => Reply::Metrics {
            tag: r.u64().map_err(protocol)?,
            metrics: read_metrics(&mut r)?,
        },
        KIND_SHUTDOWN_REPLY => Reply::Shutdown {
            tag: r.u64().map_err(protocol)?,
        },
        KIND_ERROR_REPLY => Reply::Error {
            tag: r.u64().map_err(protocol)?,
            error: read_wire_error(&mut r)?,
        },
        other => {
            return Err(VibnnError::Protocol(format!(
                "unknown reply kind {other:#04x}"
            )))
        }
    };
    r.finish().map_err(protocol)?;
    Ok(reply)
}

/// Sizing and defense knobs for an [`IngestServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Largest accepted frame payload in bytes; hostile length prefixes
    /// beyond it are rejected before allocation (default
    /// [`MAX_FRAME_LEN`], 1 MiB).
    pub max_frame_len: u32,
    /// A connection that goes this long without completing a frame read
    /// is dropped — the slow-loris defense (default 5 s).
    pub read_timeout: Duration,
    /// Connections beyond this are refused at accept (default 64).
    pub max_connections: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            max_frame_len: MAX_FRAME_LEN,
            read_timeout: Duration::from_secs(5),
            max_connections: 64,
        }
    }
}

struct ServerShared<S: StreamFork + Sync + Send + 'static> {
    cluster: ClusterEngine<S>,
    cfg: IngestConfig,
    stop: AtomicBool,
    /// `try_clone`s of every live connection, so shutdown can unblock
    /// handlers stuck in a read.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    connections_open: AtomicU64,
    connections_total: AtomicU64,
    requests_decoded: AtomicU64,
    protocol_errors: AtomicU64,
}

impl<S: StreamFork + Sync + Send> ServerShared<S> {
    fn snapshot(&self) -> IngestMetrics {
        IngestMetrics {
            cluster: self.cluster.metrics(),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            requests_decoded: self.requests_decoded.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Removes the connection from the registry when its handler exits, by
/// any path.
struct ConnGuard<'a, S: StreamFork + Sync + Send + 'static> {
    shared: &'a ServerShared<S>,
    id: u64,
}

impl<S: StreamFork + Sync + Send> Drop for ConnGuard<'_, S> {
    fn drop(&mut self) {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
        self.shared.connections_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A blocking TCP server exposing a [`ClusterEngine`] over the ingest
/// wire protocol (see the [module docs](self) for the frame format,
/// deadline and lane semantics, and the robustness contract).
///
/// The server owns the cluster: requests decoded off the wire are
/// admitted with [`ClusterEngine::submit_with`] and answered with
/// bit-identical results. Each connection gets a handler thread; the
/// accept loop and all handlers wind down on
/// [`shutdown`](Self::shutdown), on drop, or after a client sends
/// [`Request::Shutdown`].
///
/// # Example
///
/// ```
/// use vibnn::bnn::{Bnn, BnnConfig};
/// use vibnn::nn::Matrix;
/// use vibnn::{
///     ClusterConfig, ClusterEngine, IngestClient, IngestConfig, IngestServer, VibnnBuilder,
/// };
///
/// let bnn = Bnn::new(BnnConfig::new(&[4, 8, 3]), 7);
/// let vibnn = VibnnBuilder::new(bnn.params())
///     .mc_samples(4)
///     .calibration(Matrix::zeros(2, 4))
///     .build()?;
/// let cluster = ClusterEngine::new(vibnn, ClusterConfig::default())?;
/// // Port 0 lets the OS pick a free loopback port.
/// let server = match IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default()) {
///     Ok(server) => server,
///     Err(_) => return Ok(()), // sandboxes may forbid sockets; skip
/// };
/// let mut client = IngestClient::connect(server.local_addr())?;
/// let result = client.predict(&[0.0; 4])?;
/// assert_eq!(result.proba.len(), 3);
/// client.shutdown_server()?;
/// server.shutdown();
/// # Ok::<(), vibnn::VibnnError>(())
/// ```
pub struct IngestServer<S: StreamFork + Sync + Send + 'static = ZigguratGrng> {
    shared: Arc<ServerShared<S>>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl<S: StreamFork + Sync + Send> std::fmt::Debug for IngestServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl<S: StreamFork + Sync + Send + 'static> IngestServer<S> {
    /// Binds the listener and starts the accept loop. Bind to port `0`
    /// to let the OS choose ([`local_addr`](Self::local_addr) reports
    /// the choice).
    ///
    /// # Errors
    ///
    /// [`VibnnError::Checkpoint`] wrapping the I/O error when the
    /// address cannot be bound (e.g. sockets unavailable in a sandbox),
    /// or [`VibnnError::BadServeConfig`] for a zero
    /// [`IngestConfig::max_frame_len`] / `max_connections`.
    pub fn bind(
        cluster: ClusterEngine<S>,
        addr: impl ToSocketAddrs,
        cfg: IngestConfig,
    ) -> Result<Self, VibnnError> {
        if cfg.max_frame_len == 0 {
            return Err(VibnnError::BadServeConfig("max_frame_len must be positive"));
        }
        if cfg.max_connections == 0 {
            return Err(VibnnError::BadServeConfig(
                "max_connections must be positive",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            cluster,
            cfg,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            requests_decoded: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(Self {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address — connect [`IngestClient`]s here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A metrics snapshot; its [`IngestMetrics::frame`] is what the
    /// wire [`Request::Metrics`] reply carries.
    pub fn metrics(&self) -> IngestMetrics {
        self.shared.snapshot()
    }

    /// Whether the server has begun winding down (a client sent
    /// [`Request::Shutdown`], or shutdown/drop started).
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Stops accepting, unblocks and joins every connection handler,
    /// and returns the cluster (still running — callers can keep
    /// serving in-process or shut it down for leftovers).
    pub fn shutdown(mut self) -> ClusterEngine<S> {
        self.stop_and_join();
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(s) => s.cluster,
            Err(_) => unreachable!("all server threads joined"),
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl<S: StreamFork + Sync + Send> Drop for IngestServer<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<S: StreamFork + Sync + Send + 'static>(
    listener: TcpListener,
    shared: &Arc<ServerShared<S>>,
) {
    let mut next_conn = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.connections_open.load(Ordering::Relaxed)
                    >= shared.cfg.max_connections as u64
                {
                    drop(stream); // refuse by closing
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
                let conn_id = next_conn;
                next_conn += 1;
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(conn_id, clone);
                }
                shared.connections_open.fetch_add(1, Ordering::Relaxed);
                shared.connections_total.fetch_add(1, Ordering::Relaxed);
                let handler_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let guard = ConnGuard {
                        shared: &handler_shared,
                        id: conn_id,
                    };
                    handle_connection(stream, guard.shared);
                });
                shared
                    .handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            // Nonblocking accept: poll the stop flag between attempts.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Unblock every handler still waiting in a read, then join them.
    for (_, conn) in shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain()
    {
        let _ = conn.shutdown(Shutdown::Both);
    }
    let handles: Vec<_> = shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
        .collect();
    for handle in handles {
        let _ = handle.join();
    }
}

/// Best-effort tag recovery from an envelope that failed to decode, so
/// the error reply can still correlate (every request kind leads with
/// the tag).
fn peek_tag(envelope: &[u8]) -> u64 {
    WireReader::open_any(envelope)
        .ok()
        .and_then(|(_, mut r)| r.u64().ok())
        .unwrap_or(0)
}

fn handle_connection<S: StreamFork + Sync + Send + 'static>(
    mut stream: TcpStream,
    shared: &ServerShared<S>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match read_frame(&mut reader, shared.cfg.max_frame_len) {
            Ok(None) => break, // clean disconnect
            Ok(Some(envelope)) => {
                let received = Instant::now();
                let reply = match decode_request(&envelope) {
                    Ok(request) => {
                        shared.requests_decoded.fetch_add(1, Ordering::Relaxed);
                        serve_request(request, received, shared)
                    }
                    Err(e) => {
                        // The frame layer was intact, so the stream is
                        // still synchronized: answer the typed error and
                        // keep serving this connection.
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        Reply::Error {
                            tag: peek_tag(&envelope),
                            error: WireError::from(&e),
                        }
                    }
                };
                let stopping = matches!(reply, Reply::Shutdown { .. });
                if write_frame(&mut stream, &encode_reply(&reply)).is_err() {
                    break;
                }
                if stopping {
                    break;
                }
            }
            Err(CheckpointError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Read timeout: an idle or slow-loris connection. Drop it.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(e) => {
                // Framing is broken (truncated prefix, zero/oversized
                // length, hard I/O error): best-effort typed error, then
                // a clean close — resynchronizing is impossible.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let reply = Reply::Error {
                    tag: 0,
                    error: WireError::Protocol(e.to_string()),
                };
                let _ = write_frame(&mut stream, &encode_reply(&reply));
                break;
            }
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_request<S: StreamFork + Sync + Send + 'static>(
    request: Request,
    received: Instant,
    shared: &ServerShared<S>,
) -> Reply {
    let deadline_of = |micros: u64| {
        (micros > 0).then(|| received + Duration::from_micros(micros))
    };
    match request {
        Request::Predict {
            tag,
            priority,
            deadline_micros,
            features,
        } => {
            let opts = SubmitOptions {
                priority,
                deadline: deadline_of(deadline_micros),
            };
            match shared
                .cluster
                .submit_with(features, opts)
                .and_then(|id| shared.cluster.wait(id))
            {
                Ok(result) => Reply::Predict { tag, result },
                Err(e) => Reply::Error {
                    tag,
                    error: WireError::from(&e),
                },
            }
        }
        Request::PredictBatch {
            tag,
            priority,
            deadline_micros,
            dim,
            features,
        } => {
            if dim == 0 {
                return Reply::PredictBatch {
                    tag,
                    rows: Vec::new(),
                };
            }
            let opts = SubmitOptions {
                priority,
                deadline: deadline_of(deadline_micros),
            };
            // Submit every row before waiting on any, so the cluster
            // sees the whole batch at once and can micro-batch it.
            let submissions: Vec<Result<u64, VibnnError>> = features
                .chunks_exact(dim)
                .map(|row| shared.cluster.submit_with(row.to_vec(), opts))
                .collect();
            let rows = submissions
                .into_iter()
                .map(|submitted| {
                    submitted
                        .and_then(|id| shared.cluster.wait(id))
                        .map_err(|e| WireError::from(&e))
                })
                .collect();
            Reply::PredictBatch { tag, rows }
        }
        Request::Metrics { tag } => Reply::Metrics {
            tag,
            metrics: shared.snapshot().frame(),
        },
        Request::Shutdown { tag } => {
            shared.stop.store(true, Ordering::SeqCst);
            Reply::Shutdown { tag }
        }
    }
}

/// A blocking client for the ingest protocol: one TCP connection, one
/// in-flight request at a time, replies correlated by tag.
///
/// Prediction errors the *server* answered (backpressure, deadline,
/// shape) come back as their in-process [`VibnnError`] counterparts via
/// [`WireError::into_vibnn`], so remote and local callers handle
/// failures with the same match arms.
#[derive(Debug)]
pub struct IngestClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_tag: u64,
}

impl IngestClient {
    /// Connects to an [`IngestServer`].
    ///
    /// # Errors
    ///
    /// [`VibnnError::Checkpoint`] wrapping the connect I/O error.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, VibnnError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            next_tag: 1,
        })
    }

    fn tag(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Reply, VibnnError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        let Some(envelope) = read_frame(&mut self.reader, MAX_FRAME_LEN)? else {
            return Err(VibnnError::Protocol(
                "server closed the connection".into(),
            ));
        };
        let reply = decode_reply(&envelope)?;
        if reply.tag() != request.tag() && reply.tag() != 0 {
            return Err(VibnnError::Protocol(format!(
                "reply tag {} for request tag {}",
                reply.tag(),
                request.tag()
            )));
        }
        Ok(reply)
    }

    /// Predicts one feature row on the interactive lane with no
    /// deadline.
    ///
    /// # Errors
    ///
    /// Transport failures as [`VibnnError::Checkpoint`] /
    /// [`VibnnError::Protocol`]; server-side refusals as their typed
    /// counterparts (e.g. [`VibnnError::QueueFull`],
    /// [`VibnnError::DeadlineExceeded`]).
    pub fn predict(&mut self, features: &[f32]) -> Result<ServeResult, VibnnError> {
        self.predict_with(features, Priority::Interactive, 0)
    }

    /// [`predict`](Self::predict) with an explicit lane and deadline
    /// (microseconds after server receipt; `0` = none).
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict).
    pub fn predict_with(
        &mut self,
        features: &[f32],
        priority: Priority,
        deadline_micros: u64,
    ) -> Result<ServeResult, VibnnError> {
        let request = Request::Predict {
            tag: self.tag(),
            priority,
            deadline_micros,
            features: features.to_vec(),
        };
        match self.roundtrip(&request)? {
            Reply::Predict { result, .. } => Ok(result),
            Reply::Error { error, .. } => Err(error.into_vibnn()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Predicts many equal-width rows in one request; each row succeeds
    /// or fails independently (`Err` rows carry the typed refusal).
    ///
    /// # Errors
    ///
    /// [`VibnnError::ShapeMismatch`] for ragged input rows, transport
    /// failures, or a whole-request server error; per-row refusals come
    /// back inside the `Ok` vector instead.
    pub fn predict_batch_with(
        &mut self,
        rows: &[Vec<f32>],
        priority: Priority,
        deadline_micros: u64,
    ) -> Result<Vec<Result<ServeResult, VibnnError>>, VibnnError> {
        let dim = rows.first().map_or(0, Vec::len);
        let mut features = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            if row.len() != dim {
                return Err(VibnnError::ShapeMismatch {
                    context: "batch row width",
                    expected: dim,
                    got: row.len(),
                });
            }
            features.extend_from_slice(row);
        }
        let request = Request::PredictBatch {
            tag: self.tag(),
            priority,
            deadline_micros,
            dim,
            features,
        };
        match self.roundtrip(&request)? {
            Reply::PredictBatch { rows, .. } => Ok(rows
                .into_iter()
                .map(|row| row.map_err(WireError::into_vibnn))
                .collect()),
            Reply::Error { error, .. } => Err(error.into_vibnn()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's typed error reply.
    pub fn metrics(&mut self) -> Result<MetricsFrame, VibnnError> {
        let request = Request::Metrics { tag: self.tag() };
        match self.roundtrip(&request)? {
            Reply::Metrics { metrics, .. } => Ok(metrics),
            Reply::Error { error, .. } => Err(error.into_vibnn()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Asks the server to wind down; returns once it acknowledges.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's typed error reply.
    pub fn shutdown_server(&mut self) -> Result<(), VibnnError> {
        let request = Request::Shutdown { tag: self.tag() };
        match self.roundtrip(&request)? {
            Reply::Shutdown { .. } => Ok(()),
            Reply::Error { error, .. } => Err(error.into_vibnn()),
            other => Err(unexpected_reply(&other)),
        }
    }
}

fn unexpected_reply(reply: &Reply) -> VibnnError {
    VibnnError::Protocol(format!("unexpected reply kind for request: {reply:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_fixture(id: u64) -> ServeResult {
        ServeResult {
            id,
            proba: vec![0.25, 0.5, 0.25],
            argmax: 1,
            entropy: 1.04,
            mc_std: 0.007,
            samples_used: 4,
        }
    }

    /// `len` metrics cycling through the three value kinds, with zero to
    /// two labels each.
    fn frame_fixture(len: u64) -> MetricsFrame {
        MetricsFrame(
            (0..len)
                .map(|i| Metric {
                    name: format!("metric_{i}"),
                    labels: (0..i % 3)
                        .map(|l| (format!("key_{l}"), format!("value_{}", i * l)))
                        .collect(),
                    value: match i % 3 {
                        0 => MetricValue::Count(i * 1_000_003),
                        1 => MetricValue::Gauge(i as f64 * -0.125),
                        _ => MetricValue::Buckets((0..i).collect()),
                    },
                })
                .collect(),
        )
    }

    #[test]
    fn request_codec_round_trips() {
        let requests = [
            Request::Predict {
                tag: 7,
                priority: Priority::Interactive,
                deadline_micros: 0,
                features: vec![0.5, -1.0, 3.25],
            },
            Request::Predict {
                tag: u64::MAX,
                priority: Priority::Batch,
                deadline_micros: 125_000,
                features: vec![],
            },
            Request::PredictBatch {
                tag: 8,
                priority: Priority::Batch,
                deadline_micros: 42,
                dim: 2,
                features: vec![1.0, 2.0, 3.0, 4.0],
            },
            Request::Metrics { tag: 9 },
            Request::Shutdown { tag: 10 },
        ];
        for request in requests {
            let bytes = encode_request(&request);
            assert_eq!(decode_request(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn reply_codec_round_trips() {
        let replies = [
            Reply::Predict {
                tag: 1,
                result: result_fixture(3),
            },
            Reply::PredictBatch {
                tag: 2,
                rows: vec![
                    Ok(result_fixture(0)),
                    Err(WireError::QueueFull {
                        depth: 9,
                        capacity: 8,
                    }),
                    Err(WireError::DeadlineExceeded),
                ],
            },
            Reply::Metrics {
                tag: 3,
                metrics: frame_fixture(0),
            },
            Reply::Metrics {
                tag: 3,
                metrics: frame_fixture(9),
            },
            Reply::Shutdown { tag: 4 },
            Reply::Error {
                tag: 5,
                error: WireError::Protocol("bad frame".into()),
            },
            Reply::Error {
                tag: 6,
                error: WireError::ShapeMismatch {
                    expected: 4,
                    got: 7,
                },
            },
            Reply::Error {
                tag: 7,
                error: WireError::Other("poisoned lock".into()),
            },
            Reply::Error {
                tag: 8,
                error: WireError::Abstained {
                    samples_used: 8,
                    entropy_milli: 912,
                },
            },
            Reply::Error {
                tag: 9,
                error: WireError::BudgetExceeded {
                    predicted_micros: 1_500,
                    remaining_micros: 250,
                },
            },
        ];
        for reply in replies {
            let bytes = encode_reply(&reply);
            assert_eq!(decode_reply(&bytes).unwrap(), reply);
        }
    }

    #[test]
    fn wire_errors_round_trip_through_vibnn_error() {
        let e = VibnnError::QueueFull {
            depth: 12,
            capacity: 8,
        };
        let back = WireError::from(&e).into_vibnn();
        assert!(matches!(
            back,
            VibnnError::QueueFull {
                depth: 12,
                capacity: 8
            }
        ));
        assert!(matches!(
            WireError::from(&VibnnError::DeadlineExceeded).into_vibnn(),
            VibnnError::DeadlineExceeded
        ));
        assert!(matches!(
            WireError::from(&VibnnError::Abstained {
                samples_used: 6,
                entropy_milli: 873,
            })
            .into_vibnn(),
            VibnnError::Abstained {
                samples_used: 6,
                entropy_milli: 873,
            }
        ));
        assert!(matches!(
            WireError::from(&VibnnError::BudgetExceeded {
                predicted_micros: 900,
                remaining_micros: 10,
            })
            .into_vibnn(),
            VibnnError::BudgetExceeded {
                predicted_micros: 900,
                remaining_micros: 10,
            }
        ));
        // Unstructured variants degrade to display text, not a panic.
        let other = WireError::from(&VibnnError::MissingCalibration);
        assert!(matches!(other, WireError::Other(_)));
    }

    #[test]
    fn decoders_reject_garbage_with_typed_errors() {
        assert!(matches!(
            decode_request(b"not a frame at all"),
            Err(VibnnError::Protocol(_))
        ));
        // A valid envelope of the wrong kind family.
        let mut w = WireWriter::new(KIND_PREDICT_REPLY);
        w.u64(1);
        assert!(matches!(
            decode_request(&w.into_bytes()),
            Err(VibnnError::Protocol(_))
        ));
        // Trailing garbage after a well-formed request is rejected.
        let mut bytes = encode_request(&Request::Metrics { tag: 1 });
        bytes.push(0xFF);
        assert!(matches!(
            decode_request(&bytes),
            Err(VibnnError::Protocol(_))
        ));
        // A lane byte outside {0, 1}.
        let mut w = WireWriter::new(KIND_PREDICT);
        w.u64(1);
        w.u8(9);
        w.u64(0);
        w.dim(0);
        assert!(matches!(
            decode_request(&w.into_bytes()),
            Err(VibnnError::Protocol(_))
        ));
        // An abstention whose sample count does not fit the u32 it
        // decodes into must not wrap (2^32 + 3 would read as 3).
        for (samples_used, entropy_milli) in [((1 << 32) + 3, 500), (8, (1 << 32) + 912)] {
            let mut w = WireWriter::new(KIND_ERROR_REPLY);
            w.u64(1);
            w.u8(7);
            w.u64(samples_used);
            w.u64(entropy_milli);
            assert!(matches!(
                decode_reply(&w.into_bytes()),
                Err(VibnnError::Protocol(_))
            ));
        }
        // A metrics frame claiming more metrics than its bytes can hold.
        let mut w = WireWriter::new(KIND_METRICS_REPLY);
        w.u64(1);
        w.dim(u32::MAX as usize);
        assert!(matches!(
            decode_reply(&w.into_bytes()),
            Err(VibnnError::Protocol(_))
        ));
        // A batch claiming zero-width rows.
        let mut w = WireWriter::new(KIND_PREDICT_BATCH);
        w.u64(1);
        w.u8(0);
        w.u64(0);
        w.dim(0);
        w.dim(5);
        assert!(matches!(
            decode_request(&w.into_bytes()),
            Err(VibnnError::Protocol(_))
        ));
    }

    #[test]
    fn frame_lists_every_value_once() {
        use crate::{ClusterConfig, VibnnBuilder};
        use vibnn_bnn::{Bnn, BnnConfig};
        use vibnn_nn::Matrix;

        let bnn = Bnn::new(BnnConfig::new(&[4, 8, 3]), 7);
        let vibnn = VibnnBuilder::new(bnn.params())
            .mc_samples(4)
            .calibration(Matrix::zeros(2, 4))
            .build()
            .unwrap();
        let cluster = ClusterEngine::new(vibnn, ClusterConfig::default()).unwrap();
        let id = cluster.submit(vec![0.0; 4]).unwrap();
        cluster.wait(id).unwrap();
        let metrics = IngestMetrics {
            cluster: cluster.metrics(),
            connections_open: 1,
            connections_total: 2,
            requests_decoded: 3,
            protocol_errors: 4,
        };
        assert!(cluster.shutdown().is_empty());
        let frame = metrics.frame();
        for (i, m) in frame.0.iter().enumerate() {
            assert!(
                frame.0[..i]
                    .iter()
                    .all(|o| (&o.name, &o.labels) != (&m.name, &m.labels)),
                "{} {:?} listed twice",
                m.name,
                m.labels
            );
        }
        assert_eq!(frame.count("served"), Some(1));
        assert_eq!(frame.count("protocol_errors"), Some(4));
        assert_eq!(frame.count("replicas_alive"), Some(2));
        assert_eq!(frame.count("cost_samples"), Some(4));
        assert_eq!(frame.count("entropy_mean"), None, "a gauge is not a count");
        assert!(matches!(frame.get("mean_samples"), Some(MetricValue::Gauge(m)) if *m == 4.0));
        assert_eq!(
            frame.get("samples_histogram"),
            Some(&MetricValue::Buckets(vec![0, 0, 0, 1]))
        );
        let replicas: Vec<_> = frame
            .0
            .iter()
            .filter(|m| m.name == "cost_samples" && !m.labels.is_empty())
            .collect();
        assert_eq!(replicas.len(), 2);
        for (i, m) in replicas.iter().enumerate() {
            let labels = [("replica", i.to_string()), ("backend", "quantized".into())];
            assert_eq!(m.labels, labels.map(|(k, v)| (k.to_owned(), v)));
        }
    }

    #[test]
    fn peek_tag_recovers_when_possible() {
        let bytes = encode_request(&Request::Metrics { tag: 77 });
        assert_eq!(peek_tag(&bytes), 77);
        assert_eq!(peek_tag(b"garbage"), 0);
    }
}
