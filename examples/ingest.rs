//! Network ingestion: put a TCP front door on a replica cluster and
//! drive it with interactive and batch lanes, per-request deadlines, and
//! a live metrics probe — all over real loopback sockets, with every
//! wire prediction bit-identical to the in-process path.
//!
//! Run with: `cargo run --release --example ingest`

use vibnn::bnn::BnnConfig;
use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::datasets::parkinson_original;
use vibnn::{IngestClient, IngestConfig, IngestServer, Pipeline, Priority, VibnnError};

fn main() -> Result<(), VibnnError> {
    let ds = parkinson_original(42);
    let calib = ds.train_x.rows_slice(0, 128);
    let deployed = Pipeline::new(BnnConfig::new(&[ds.features(), 32, ds.classes]).with_lr(2e-3))
        .seed(7)
        .epochs(3)
        .batch(32)
        .train(&ds.train_x, &ds.train_y)?
        .deploy(calib)?;

    let cluster = ClusterEngine::new(
        deployed.vibnn,
        ClusterConfig {
            replicas: 2,
            max_batch: 16,
            max_queue: 256,
            workers: 0,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
    )?;

    // The front door: an ephemeral loopback port. Sandboxes without
    // socket access skip the demo instead of failing it.
    let server = match IngestServer::bind(cluster, "127.0.0.1:0", IngestConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            println!("sockets unavailable here ({e}); skipping the ingest demo");
            return Ok(());
        }
    };
    let addr = server.local_addr();
    println!("ingest server listening on {addr}");

    let n = ds.test_len().min(64);

    // An interactive client: one row per request, tight 50 ms deadline.
    // A batch client: all rows in one pipelined request, no deadline.
    // The batch lane never starves the interactive lane, and a deadline
    // that expires in the queue comes back as a typed error instead of
    // costing Monte Carlo work.
    let mut correct = 0usize;
    let mut expired = 0usize;
    let interactive = std::thread::spawn({
        let rows: Vec<Vec<f32>> = (0..n / 2).map(|r| ds.test_x.row(r).to_vec()).collect();
        move || -> Result<Vec<Option<usize>>, VibnnError> {
            let mut client = IngestClient::connect(addr)?;
            let mut answers = Vec::new();
            for row in &rows {
                match client.predict_with(row, Priority::Interactive, 50_000) {
                    Ok(res) => answers.push(Some(res.argmax)),
                    Err(VibnnError::DeadlineExceeded) => answers.push(None),
                    Err(e) => return Err(e),
                }
            }
            Ok(answers)
        }
    });
    let mut batch_client = IngestClient::connect(addr)?;
    let batch_rows: Vec<Vec<f32>> = (n / 2..n).map(|r| ds.test_x.row(r).to_vec()).collect();
    let batch_answers = batch_client.predict_batch_with(&batch_rows, Priority::Batch, 0)?;
    for (i, outcome) in batch_answers.into_iter().enumerate() {
        let res = outcome?;
        correct += usize::from(res.argmax == ds.test_y[n / 2 + i]);
    }
    for (r, answer) in interactive.join().expect("client thread")?.iter().enumerate() {
        match answer {
            Some(argmax) => correct += usize::from(*argmax == ds.test_y[r]),
            None => expired += 1,
        }
    }

    let metrics = batch_client.metrics()?;
    let count = |name| metrics.count(name).expect("the server reports every count");
    println!(
        "served {} requests over TCP ({} interactive / {} batch): accuracy {:.3}, \
         {} deadline-expired, {} protocol errors, {} connections total",
        count("served"),
        count("served_interactive"),
        count("served_batch"),
        correct as f64 / (n - expired) as f64,
        count("deadline_expired"),
        count("protocol_errors"),
        count("connections_total")
    );

    // Wind down: the server hands the intact cluster back.
    batch_client.shutdown_server()?;
    let cluster = server.shutdown();
    cluster.shutdown();
    Ok(())
}
