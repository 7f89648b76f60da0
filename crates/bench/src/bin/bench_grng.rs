//! Machine-readable GRNG throughput benchmark: writes `BENCH_grng.json`.
//!
//! Measures every GRNG design twice over the same batch size — `scalar`
//! (one `next_gaussian()` virtual call per sample) and `block` (one
//! `fill()` per batch) — and records samples/sec plus the block/scalar
//! speedup, so future PRs can diff the numbers and catch regressions. It
//! also times `StreamFork::fork` (`fork_ns`): the Monte Carlo loops fork
//! once per sample, so a design's per-fork set-up is paid on every one.
//!
//! Output path: `$VIBNN_BENCH_OUT` if set, else `BENCH_grng.json` in the
//! working directory. `VIBNN_SCALE=quick` shrinks the measurement budget.
use std::fmt::Write as _;
use std::time::Instant;

use vibnn_bench::{write_report, RunScale};
use vibnn_grng::{
    BnnWallaceGrng, BoxMullerGrng, CdfInversionGrng, CltGrng, GaussianSource, ParallelRlfGrng,
    SoftwareWallace, StreamFork, WallaceNss, ZigguratGrng,
};

const BATCH: usize = 4096;

struct Measurement {
    name: &'static str,
    scalar_samples_per_sec: f64,
    block_samples_per_sec: f64,
    fork_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.block_samples_per_sec / self.scalar_samples_per_sec
    }
}

/// Runs `f` repeatedly for at least `budget_ms`, returning samples/sec.
fn rate(batches_hint: usize, budget_ms: u64, mut f: impl FnMut()) -> f64 {
    // Warm-up pass so pool initialization and page faults stay out of the
    // measurement.
    f();
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut batches = 0usize;
    while start.elapsed() < budget || batches < batches_hint {
        f();
        batches += 1;
    }
    (batches * BATCH) as f64 / start.elapsed().as_secs_f64()
}

/// Nanoseconds per `fork`, over at least `budget_ms` of forks with
/// distinct stream ids.
fn fork_ns<G: StreamFork>(src: &G, budget_ms: u64) -> f64 {
    std::hint::black_box(src.fork(0));
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut forks = 0u64;
    while start.elapsed() < budget || forks < 16 {
        for _ in 0..16 {
            std::hint::black_box(src.fork(forks));
            forks += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / forks as f64
}

fn measure<G: StreamFork + 'static>(name: &'static str, budget_ms: u64, src: G) -> Measurement {
    let fork_ns = fork_ns(&src, budget_ms);
    let mut src: Box<dyn GaussianSource> = Box::new(src);
    let mut buf = vec![0.0f64; BATCH];
    let scalar = rate(4, budget_ms, || {
        for slot in &mut buf {
            *slot = src.next_gaussian();
        }
        std::hint::black_box(buf[BATCH - 1]);
    });
    let block = rate(4, budget_ms, || {
        src.fill(&mut buf);
        std::hint::black_box(buf[BATCH - 1]);
    });
    Measurement {
        name,
        scalar_samples_per_sec: scalar,
        block_samples_per_sec: block,
        fork_ns,
    }
}

fn main() {
    let budget_ms = match RunScale::from_env() {
        RunScale::Quick => 40,
        RunScale::Default => 250,
        RunScale::Full => 1000,
    };
    let rows = vec![
        measure("rlf_64_lanes", budget_ms, ParallelRlfGrng::new(64, 1)),
        measure(
            "bnnwallace_8x256",
            budget_ms,
            BnnWallaceGrng::new(8, 256, 2),
        ),
        measure(
            "software_wallace_4096",
            budget_ms,
            SoftwareWallace::new(4096, 1, 3),
        ),
        measure("wallace_nss_256", budget_ms, WallaceNss::new(256, 4)),
        measure("clt_lfsr_pc", budget_ms, CltGrng::new(255, 8, 5)),
        measure("box_muller", budget_ms, BoxMullerGrng::new(6)),
        measure("ziggurat", budget_ms, ZigguratGrng::new(7)),
        measure("cdf_inversion", budget_ms, CdfInversionGrng::new(8)),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"budget_ms\": {budget_ms},");
    json.push_str("  \"generators\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"scalar_samples_per_sec\": {:.0}, \
             \"block_samples_per_sec\": {:.0}, \"block_speedup\": {:.3}, \
             \"fork_ns\": {:.1}}}{}",
            m.name,
            m.scalar_samples_per_sec,
            m.block_samples_per_sec,
            m.speedup(),
            m.fork_ns,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    write_report("BENCH_grng.json", &json);
    for m in &rows {
        println!(
            "{:<24} scalar {:>10.2} Msamples/s   block {:>10.2} Msamples/s   x{:.2}   fork {:>10.1} ns",
            m.name,
            m.scalar_samples_per_sec / 1e6,
            m.block_samples_per_sec / 1e6,
            m.speedup(),
            m.fork_ns,
        );
    }
}
