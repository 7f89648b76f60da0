//! Machine-readable ingest-serving benchmark: writes `BENCH_ingest.json`.
//!
//! Measures the TCP front door ([`vibnn::ingest::IngestServer`]) in front
//! of a replica cluster over real loopback sockets, in two regimes:
//!
//! * **closed loop** — a fixed pool of concurrent clients, each issuing
//!   its next request the moment the previous reply lands (throughput
//!   capacity and per-lane service latency);
//! * **open loop** — arrivals on a precomputed seeded schedule the
//!   server cannot slow down, both Poisson (memoryless interarrivals)
//!   and bursty (back-to-back packets at the same mean rate), with
//!   latency measured from the *scheduled* arrival, so queueing delay
//!   under bursts is charged to the server.
//!
//! Both regimes report requests/sec and p50/p99/p999 per scheduling lane
//! (interactive vs batch). Before timing anything it asserts the wire
//! contract: every prediction served over TCP must be bit-identical to
//! direct `ClusterEngine::submit` against an identically seeded cluster.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_ingest.json` in
//! the working directory. `VIBNN_SCALE=quick` shrinks the workload.
//! Sandboxes that forbid loopback sockets get a JSON stub with
//! `"sockets_available": false` and exit code 0.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vibnn::cluster::{ClusterConfig, ClusterEngine};
use vibnn::grng::ZigguratGrng;
use vibnn::nn::Matrix;
use vibnn::rng::{BitSource, SplitMix64};
use vibnn::{IngestClient, IngestConfig, IngestServer, Priority, Vibnn};
use vibnn_bench::{bits, deploy, synth_rows, write_report, RunScale};

const CLUSTER_SEED: u64 = 0x16E57;
const SCHEDULE_SEED: u64 = 0xA881;

struct Workload {
    features: usize,
    hidden: usize,
    classes: usize,
    requests: usize,
    mc_samples: usize,
    train_epochs: usize,
    closed_clients: usize,
    open_workers: usize,
}

impl Workload {
    fn from_scale(scale: RunScale) -> Self {
        match scale {
            RunScale::Quick => Self {
                features: 8,
                hidden: 16,
                classes: 2,
                requests: 128,
                mc_samples: 4,
                train_epochs: 2,
                closed_clients: 2,
                open_workers: 8,
            },
            RunScale::Default => Self {
                features: 26,
                hidden: 64,
                classes: 2,
                requests: 512,
                mc_samples: 8,
                train_epochs: 6,
                closed_clients: 4,
                open_workers: 16,
            },
            RunScale::Full => Self {
                features: 26,
                hidden: 128,
                classes: 2,
                requests: 2048,
                mc_samples: 8,
                train_epochs: 10,
                closed_clients: 8,
                open_workers: 32,
            },
        }
    }
}

fn cluster(vibnn: Vibnn) -> ClusterEngine<ZigguratGrng> {
    ClusterEngine::with_eps(
        vibnn,
        ClusterConfig {
            replicas: 2,
            max_batch: 16,
            max_queue: 1024,
            workers: 1,
            spill: true,
            batch_skip_bound: 4,
            backend: None,
            policy: None,
        },
        ZigguratGrng::new(CLUSTER_SEED),
    )
    .expect("valid cluster config")
}

/// The lane a request index rides: every third request is interactive,
/// the rest are batch — a plausible online/offline traffic mix that
/// exercises the bounded-skip dequeue under load.
fn lane_of(i: usize) -> Priority {
    if i % 3 == 0 {
        Priority::Interactive
    } else {
        Priority::Batch
    }
}

/// Latency percentiles (µs) of one lane's samples.
struct LaneStats {
    count: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn lane_stats(mut samples: Vec<f64>) -> LaneStats {
    samples.sort_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
        samples[idx]
    };
    LaneStats {
        count: samples.len(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
    }
}

fn lanes_json(json: &mut String, interactive: &LaneStats, batch: &LaneStats) {
    for (name, s, trailing) in [
        ("interactive", interactive, ","),
        ("batch", batch, ""),
    ] {
        let _ = writeln!(
            json,
            "      \"{name}\": {{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"p999_us\": {:.1}}}{trailing}",
            s.count, s.p50_us, s.p99_us, s.p999_us
        );
    }
}

/// Closed loop: `clients` connections, each firing its next request as
/// soon as the previous reply arrives. Returns total requests/sec plus
/// per-lane latency samples (µs, reply minus send).
fn closed_loop(
    addr: SocketAddr,
    x: &Matrix,
    clients: usize,
    total_requests: usize,
) -> (f64, Vec<f64>, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let interactive = Mutex::new(Vec::new());
    let batch = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = IngestClient::connect(addr).expect("connect");
                let mut mine_i = Vec::new();
                let mut mine_b = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total_requests {
                        break;
                    }
                    let lane = lane_of(i);
                    let sent = Instant::now();
                    client
                        .predict_with(x.row(i % x.rows()), lane, 0)
                        .expect("closed-loop predict");
                    let us = sent.elapsed().as_secs_f64() * 1e6;
                    match lane {
                        Priority::Interactive => mine_i.push(us),
                        Priority::Batch => mine_b.push(us),
                    }
                }
                interactive.lock().unwrap().extend(mine_i);
                batch.lock().unwrap().extend(mine_b);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (
        total_requests as f64 / elapsed,
        interactive.into_inner().unwrap(),
        batch.into_inner().unwrap(),
    )
}

/// Open loop: requests arrive on `offsets` (seconds from the run start)
/// regardless of how fast the server answers; a worker pool large enough
/// to keep client-side queueing negligible carries them, and latency is
/// measured from the scheduled arrival. Returns achieved requests/sec
/// plus per-lane samples (µs).
fn open_loop(
    addr: SocketAddr,
    x: &Matrix,
    offsets: &[f64],
    workers: usize,
) -> (f64, Vec<f64>, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let interactive = Mutex::new(Vec::new());
    let batch = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut client = IngestClient::connect(addr).expect("connect");
                let mut mine_i = Vec::new();
                let mut mine_b = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= offsets.len() {
                        break;
                    }
                    let due = Duration::from_secs_f64(offsets[i]);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let scheduled = start + due;
                    let lane = lane_of(i);
                    client
                        .predict_with(x.row(i % x.rows()), lane, 0)
                        .expect("open-loop predict");
                    let us = scheduled.elapsed().as_secs_f64() * 1e6;
                    match lane {
                        Priority::Interactive => mine_i.push(us),
                        Priority::Batch => mine_b.push(us),
                    }
                }
                interactive.lock().unwrap().extend(mine_i);
                batch.lock().unwrap().extend(mine_b);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (
        offsets.len() as f64 / elapsed,
        interactive.into_inner().unwrap(),
        batch.into_inner().unwrap(),
    )
}

/// Seeded Poisson arrivals: exponential interarrival times at `rate`
/// requests/sec.
fn poisson_offsets(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1]: 53 random mantissa bits, never zero.
            let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            t
        })
        .collect()
}

/// Bursty arrivals: `burst` back-to-back requests, then silence until
/// the next burst, at the same mean `rate`.
fn bursty_offsets(n: usize, rate: f64, burst: usize) -> Vec<f64> {
    let period = burst as f64 / rate;
    (0..n).map(|i| (i / burst) as f64 * period).collect()
}

fn main() {
    let scale = RunScale::from_env();
    let w = Workload::from_scale(scale);
    let (x, _) = synth_rows(w.requests, w.features, 17);
    let sizes = [w.features, w.hidden, w.classes];
    let vibnn = deploy(&sizes, w.mc_samples, w.train_epochs);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());

    // The reference the wire must reproduce: direct ClusterEngine::submit
    // against an identically seeded cluster.
    let direct: Vec<Vec<u32>> = {
        let c = cluster(vibnn.clone());
        let ids: Vec<u64> = (0..x.rows())
            .map(|r| c.submit(x.row(r).to_vec()).expect("direct submit"))
            .collect();
        let rows = ids
            .into_iter()
            .map(|id| bits(&c.wait(id).expect("direct result").proba))
            .collect();
        c.shutdown();
        rows
    };

    let server = match IngestServer::bind(cluster(vibnn), "127.0.0.1:0", IngestConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            // No sockets in this sandbox: record that, succeed anyway.
            let stub = format!(
                "{{\n  \"scale\": \"{scale:?}\",\n  \"sockets_available\": false,\n  \
                 \"note\": \"{e}\"\n}}\n"
            );
            println!("sockets unavailable ({e}); writing a stub");
            write_report("BENCH_ingest.json", &stub);
            return;
        }
    };
    let addr = server.local_addr();

    // Bit-identity gate, both wire paths, before any timing: single
    // predicts on one connection, one pipelined batch on another.
    {
        let mut client = IngestClient::connect(addr).expect("connect");
        for (r, expect) in direct.iter().enumerate() {
            let res = client
                .predict_with(x.row(r), lane_of(r), 0)
                .expect("gate predict");
            assert_eq!(&bits(&res.proba), expect, "wire single-predict diverged at row {r}");
        }
        let rows: Vec<Vec<f32>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
        let outcomes = client
            .predict_batch_with(&rows, Priority::Batch, 0)
            .expect("gate batch");
        for (r, outcome) in outcomes.iter().enumerate() {
            let res = outcome.as_ref().expect("gate batch row");
            assert_eq!(bits(&res.proba), direct[r], "wire batch-predict diverged at row {r}");
        }
    }

    // Closed loop: warm-up pass, then the measured pass.
    let _ = closed_loop(addr, &x, w.closed_clients, w.requests);
    let (closed_rps, closed_i, closed_b) = closed_loop(addr, &x, w.closed_clients, w.requests);
    println!(
        "closed loop: {} clients, {closed_rps:.1} req/s ({} interactive / {} batch samples)",
        w.closed_clients,
        closed_i.len(),
        closed_b.len()
    );

    // Open loop at 60% of the measured closed-loop capacity: enough load
    // to queue under bursts without saturating outright.
    let offered = (closed_rps * 0.6).max(10.0);
    let poisson = poisson_offsets(w.requests, offered, SCHEDULE_SEED);
    let (poisson_rps, poisson_i, poisson_b) = open_loop(addr, &x, &poisson, w.open_workers);
    println!("open loop (poisson @ {offered:.1} req/s offered): {poisson_rps:.1} req/s achieved");
    let burst_size = 16usize;
    let bursty = bursty_offsets(w.requests, offered, burst_size);
    let (bursty_rps, bursty_i, bursty_b) = open_loop(addr, &x, &bursty, w.open_workers);
    println!("open loop (bursts of {burst_size} @ {offered:.1} req/s offered): {bursty_rps:.1} req/s achieved");

    let metrics = server.metrics();
    server.shutdown().shutdown();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(
        json,
        "  \"arch\": [{}, {}, {}],",
        w.features, w.hidden, w.classes
    );
    let _ = writeln!(json, "  \"requests_per_regime\": {},", w.requests);
    let _ = writeln!(json, "  \"mc_samples\": {},", w.mc_samples);
    let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(json, "  \"sockets_available\": true,");
    let _ = writeln!(json, "  \"wire_bit_identical_to_direct_submit\": true,");
    let _ = writeln!(json, "  \"server_protocol_errors\": {},", metrics.protocol_errors);
    let _ = writeln!(json, "  \"closed_loop\": {{");
    let _ = writeln!(json, "    \"clients\": {},", w.closed_clients);
    let _ = writeln!(json, "    \"requests_per_sec\": {closed_rps:.1},");
    let _ = writeln!(json, "    \"lanes\": {{");
    lanes_json(&mut json, &lane_stats(closed_i), &lane_stats(closed_b));
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"open_loop_poisson\": {{");
    let _ = writeln!(json, "    \"offered_rps\": {offered:.1},");
    let _ = writeln!(json, "    \"achieved_rps\": {poisson_rps:.1},");
    let _ = writeln!(json, "    \"lanes\": {{");
    lanes_json(&mut json, &lane_stats(poisson_i), &lane_stats(poisson_b));
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"open_loop_bursty\": {{");
    let _ = writeln!(json, "    \"burst_size\": {burst_size},");
    let _ = writeln!(json, "    \"offered_rps\": {offered:.1},");
    let _ = writeln!(json, "    \"achieved_rps\": {bursty_rps:.1},");
    let _ = writeln!(json, "    \"lanes\": {{");
    lanes_json(&mut json, &lane_stats(bursty_i), &lane_stats(bursty_b));
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    write_report("BENCH_ingest.json", &json);
}
