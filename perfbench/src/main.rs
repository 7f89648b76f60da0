//! Serving benchmark for the vibnn stack.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload <interactive_wire|bulk_mnist|adaptive_retrain> \
//!     --seed <n> --seconds <s> --trace <0|1> [--perturb-reference]
//! ```
//!
//! Every workload builds its model from fixed data, makes its request
//! inputs from `--seed`, checks served answers bit for bit against an
//! in-process reference before timing, and then measures for `--seconds`.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run drives the
//! same inputs down the stack one layer at a time and reports per-layer
//! metrics instead (see `perfbench/README.md`).
//!
//! `--perturb-reference` flips one bit of one reference row, so the
//! correctness gate must fail (the self-test checks this).

mod adaptive;
mod ladder;
mod models;
mod pace;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Command-line options.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub perturb_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        perturb_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--perturb-reference" => args.perturb_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints as its last line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A wrong answer or a broken run: the benchmark stops without a result.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// Where a traced run writes its spans (relative to the repository root).
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    format!("perfbench/traces/{}-seed{}.tsv", args.workload, args.seed).into()
}

/// Exact bit patterns of a probability row, for bit-identity checks.
pub fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "interactive_wire" => wire::run(&args, wire::Shape::Interactive),
        "bulk_mnist" => wire::run(&args, wire::Shape::Bulk),
        "adaptive_retrain" => adaptive::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            fail(format!("metric {} is not finite", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
