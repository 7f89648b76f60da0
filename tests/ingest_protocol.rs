//! Protocol-level fault injection against a **live** ingest server:
//! truncated frames, hostile length prefixes, bad magic/version/kind,
//! mid-request disconnects, slow-loris stalls, and queue-full recovery.
//! The contract under every attack: a typed error reply or a clean
//! drop — never a panic — and other clients keep being served.
//!
//! Run explicitly by `ci.sh`. Every test skips gracefully when the
//! sandbox forbids loopback sockets.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use vibnn::bnn::checkpoint::{read_frame, write_frame, WireWriter, MAX_FRAME_LEN};
use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::ingest::{decode_reply, Reply, WireError, KIND_PREDICT};
use vibnn::nn::Matrix;
use vibnn::{
    ClusterConfig, ClusterEngine, IngestClient, IngestConfig, IngestServer, Priority, Vibnn,
    VibnnBuilder, VibnnError,
};

const FEATURES: usize = 3;

fn tiny_vibnn() -> Vibnn {
    let bnn = Bnn::new(BnnConfig::new(&[FEATURES, 6, 2]).with_sigma_init(0.1), 11);
    VibnnBuilder::new(bnn.params())
        .mc_samples(3)
        .calibration(Matrix::zeros(2, FEATURES))
        .build()
        .expect("valid deployment")
}

/// Binds a loopback server, or `None` when the sandbox forbids sockets
/// (the suite then passes vacuously, as ci.sh expects).
fn try_server(cluster_cfg: ClusterConfig, ingest_cfg: IngestConfig) -> Option<IngestServer> {
    let cluster = ClusterEngine::new(tiny_vibnn(), cluster_cfg).expect("valid cluster");
    match IngestServer::bind(cluster, "127.0.0.1:0", ingest_cfg) {
        Ok(server) => Some(server),
        Err(e) => {
            eprintln!("skipping ingest protocol test: cannot bind loopback ({e})");
            None
        }
    }
}

fn default_server() -> Option<IngestServer> {
    try_server(
        ClusterConfig::default(),
        IngestConfig {
            read_timeout: Duration::from_millis(500),
            ..IngestConfig::default()
        },
    )
}

/// Reads one reply frame off a raw socket.
fn read_reply(stream: &mut TcpStream) -> Option<Reply> {
    let envelope = read_frame(stream, MAX_FRAME_LEN).ok()??;
    decode_reply(&envelope).ok()
}

/// The liveness probe used after every attack: a fresh well-behaved
/// client must still get served.
fn assert_still_serving(server: &IngestServer) {
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    let result = client.predict(&[0.0; FEATURES]).expect("predict");
    assert_eq!(result.proba.len(), 2);
}

#[test]
fn hostile_length_prefixes_get_typed_error_then_clean_close() {
    let Some(server) = default_server() else {
        return;
    };
    // Zero length prefix, oversized length prefix: both rejected before
    // any allocation, with a typed protocol error where possible.
    for prefix in [0u32, u32::MAX, MAX_FRAME_LEN + 1] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&prefix.to_le_bytes()).expect("write");
        // For nonzero prefixes the server would wait for the payload if
        // it trusted the length; prove it does not by sending nothing
        // more. Close our write half so a (buggy) trusting read would
        // see EOF rather than hang.
        stream.shutdown(Shutdown::Write).ok();
        match read_reply(&mut stream) {
            Some(Reply::Error { error, .. }) => {
                assert!(matches!(error, WireError::Protocol(_)), "{error:?}")
            }
            Some(other) => panic!("prefix {prefix:#x}: unexpected reply {other:?}"),
            None => {} // clean drop is also within contract
        }
        // The connection is closed afterwards: next read sees EOF.
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "prefix {prefix:#x}");
        assert_still_serving(&server);
    }
    assert!(server.metrics().protocol_errors >= 3);
    server.shutdown();
}

#[test]
fn truncated_frame_is_a_typed_error_not_a_hang() {
    let Some(server) = default_server() else {
        return;
    };
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Promise 100 bytes, deliver 10, then half-close: the server must
    // answer a typed error (or drop), not wait forever.
    stream.write_all(&100u32.to_le_bytes()).expect("write");
    stream.write_all(&[0xAB; 10]).expect("write");
    stream.shutdown(Shutdown::Write).ok();
    if let Some(reply) = read_reply(&mut stream) {
        assert!(
            matches!(
                reply,
                Reply::Error {
                    error: WireError::Protocol(_),
                    ..
                }
            ),
            "{reply:?}"
        );
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn bad_magic_version_and_kind_keep_the_connection_alive() {
    let Some(server) = default_server() else {
        return;
    };
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Three malformed envelopes inside well-formed frames: the stream
    // stays synchronized, so each gets a typed error and the connection
    // survives all of them.
    let bad_magic = b"NOPE\x01\x00\x10rest".to_vec();
    let bad_version = {
        let mut env = b"VIBN".to_vec();
        env.extend_from_slice(&99u16.to_le_bytes());
        env.push(KIND_PREDICT);
        env
    };
    let bad_kind = {
        let mut w = WireWriter::new(0x7F);
        w.u64(42);
        w.into_bytes()
    };
    for (what, envelope) in [
        ("magic", bad_magic),
        ("version", bad_version),
        ("kind", bad_kind),
    ] {
        write_frame(&mut stream, &envelope).expect("write frame");
        match read_reply(&mut stream) {
            Some(Reply::Error { error, .. }) => {
                assert!(matches!(error, WireError::Protocol(_)), "bad {what}")
            }
            other => panic!("bad {what}: expected typed error, got {other:?}"),
        }
    }
    // The unknown-kind envelope carried a readable tag; the error reply
    // must echo it so the client can correlate.
    let mut w = WireWriter::new(0x70);
    w.u64(4242);
    write_frame(&mut stream, &w.into_bytes()).expect("write frame");
    match read_reply(&mut stream) {
        Some(Reply::Error { tag, .. }) => assert_eq!(tag, 4242),
        other => panic!("expected tagged error, got {other:?}"),
    }
    // Same connection, now a well-formed request: still served.
    drop(stream);
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.predict(&[0.0; FEATURES]).expect("predict").proba.len(), 2);
    assert!(server.metrics().protocol_errors >= 4);
    server.shutdown();
}

/// A wrong-width row in a `Predict` frame never reaches the forward
/// kernel's width check: the reply is a typed `ShapeMismatch`, and the
/// next well-formed row on the same connection gets its reference bits.
#[test]
fn wrong_width_predict_is_a_typed_error_and_serving_continues() {
    let vibnn = tiny_vibnn();
    let cluster = ClusterEngine::new(vibnn.clone(), ClusterConfig::default()).expect("cluster");
    let row = [0.25f32, -1.5, 0.75];
    let reference =
        vibnn.predict_proba_parallel(&Matrix::from_rows(&[&row]), &cluster.replica_eps(), 1);
    let server = match IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("skipping ingest protocol test: cannot bind loopback ({e})");
            return;
        }
    };
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    for bad in [&[0.5f32; FEATURES + 1][..], &[0.5; FEATURES - 1], &[]] {
        match client.predict(bad) {
            Err(VibnnError::ShapeMismatch { expected, got, .. }) => {
                assert_eq!((expected, got), (FEATURES, bad.len()));
            }
            other => panic!("width {}: expected ShapeMismatch, got {other:?}", bad.len()),
        }
    }
    let served = client.predict(&row).expect("predict");
    let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served.proba), bits(reference.row(0)));
    drop(client);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_never_panics_the_server() {
    let Some(server) = default_server() else {
        return;
    };
    for cut_after in [1usize, 3, 4, 7] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut frame = Vec::new();
        let mut w = WireWriter::new(KIND_PREDICT);
        w.u64(1);
        w.u8(0);
        w.u64(0);
        w.dim(FEATURES);
        w.f32s(&[0.0; FEATURES]);
        write_frame(&mut frame, &w.into_bytes()).expect("encode");
        stream.write_all(&frame[..cut_after]).expect("write");
        drop(stream); // vanish mid-frame
        assert_still_serving(&server);
    }
    server.shutdown();
}

#[test]
fn slow_loris_is_dropped_after_the_read_timeout() {
    let Some(server) = try_server(
        ClusterConfig::default(),
        IngestConfig {
            read_timeout: Duration::from_millis(200),
            ..IngestConfig::default()
        },
    ) else {
        return;
    };
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Drip two bytes of the length prefix, then stall past the timeout.
    stream.write_all(&[0x08, 0x00]).expect("write");
    std::thread::sleep(Duration::from_millis(600));
    // The server must have dropped us (EOF or reset on the next read) —
    // and must still serve everyone else while we stalled.
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => {
            // At most a best-effort error frame before the close.
            assert!(n <= buf.len());
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0);
        }
    }
    assert_still_serving(&server);
    assert!(server.metrics().protocol_errors >= 1);
    server.shutdown();
}

#[test]
fn queue_full_travels_typed_and_the_connection_recovers() {
    // A deliberately tiny cluster queue: a 32-row batch must trip
    // QueueFull for at least one row, the error must carry the real
    // depth/capacity payload over the wire, and the same connection
    // must serve a plain predict right afterwards.
    let Some(server) = try_server(
        ClusterConfig {
            replicas: 1,
            max_batch: 1,
            max_queue: 2,
            workers: 1,
            spill: false,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
        IngestConfig::default(),
    ) else {
        return;
    };
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32 * 0.01; FEATURES]).collect();
    let mut saw_queue_full = false;
    for _ in 0..5 {
        let outcomes = client
            .predict_batch_with(&rows, Priority::Batch, 0)
            .expect("batch round-trip");
        assert_eq!(outcomes.len(), rows.len());
        for outcome in &outcomes {
            match outcome {
                Ok(result) => assert_eq!(result.proba.len(), 2),
                Err(VibnnError::QueueFull { depth, capacity }) => {
                    assert_eq!(*capacity, 2, "configured capacity must travel the wire");
                    assert!(*depth >= 2, "depth {depth} below capacity");
                    saw_queue_full = true;
                }
                Err(e) => panic!("unexpected row error: {e}"),
            }
        }
        if saw_queue_full {
            break;
        }
    }
    assert!(
        saw_queue_full,
        "32 rows against a 2-deep queue never tripped backpressure"
    );
    // Reply-after-QueueFull recovery: the same connection still serves.
    let result = client.predict(&[0.5; FEATURES]).expect("recovery predict");
    assert_eq!(result.proba.len(), 2);
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.count("rejected").expect("rejected") >= 1);
    assert_eq!(metrics.count("capacity"), Some(2));
    server.shutdown();
}

#[test]
fn shutdown_request_stops_accepting_but_settles_in_flight_work() {
    let Some(server) = default_server() else {
        return;
    };
    let addr = server.local_addr();
    let mut client = IngestClient::connect(addr).expect("connect");
    client.predict(&[0.1; FEATURES]).expect("predict");
    client.shutdown_server().expect("shutdown ack");
    assert!(server.is_stopping());
    // The returned cluster is intact and still serves in-process.
    let cluster = server.shutdown();
    let id = cluster.submit(vec![0.0; FEATURES]).expect("submit");
    assert!(cluster.wait(id).is_ok());
    cluster.shutdown();
}
