//! Shared helpers for the VIBNN benchmark binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` (`table1` … `table7`, `fig15` … `fig18`, ablations, and
//! `all_experiments`). Criterion micro-benchmarks live in `benches/`.
//!
//! Scaling: binaries honour the `VIBNN_SCALE` environment variable —
//! `full` (paper-scale trials; slow), `default`, or `quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vibnn::bnn::{Bnn, BnnConfig};
use vibnn::nn::{GaussianInit, Matrix};
use vibnn::{Vibnn, VibnnBuilder};

/// Run scale for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Fast sanity pass (seconds).
    Quick,
    /// Balanced defaults (a few minutes total).
    Default,
    /// Paper-scale trial counts (slow).
    Full,
}

impl RunScale {
    /// Reads `VIBNN_SCALE` (`quick` / `full`; anything else = default).
    pub fn from_env() -> Self {
        match std::env::var("VIBNN_SCALE").as_deref() {
            Ok("quick") => RunScale::Quick,
            Ok("full") => RunScale::Full,
            _ => RunScale::Default,
        }
    }

    /// Samples per GRNG stability measurement (Table 1).
    pub fn grng_samples(self) -> usize {
        match self {
            RunScale::Quick => 50_000,
            RunScale::Default => 1_000_000,
            RunScale::Full => 4_000_000,
        }
    }

    /// Runs-test trials (Figure 15; the paper uses 1000).
    pub fn runs_trials(self) -> usize {
        match self {
            RunScale::Quick => 5,
            RunScale::Default => 40,
            RunScale::Full => 1000,
        }
    }

    /// Samples per runs-test trial (the paper uses 100,000).
    pub fn runs_samples(self) -> usize {
        match self {
            RunScale::Quick => 20_000,
            _ => 100_000,
        }
    }

    /// Learning-experiment scale.
    pub fn learn(self) -> vibnn::experiments::LearnScale {
        use vibnn::experiments::LearnScale;
        match self {
            RunScale::Quick => LearnScale::smoke(),
            RunScale::Default => LearnScale {
                mnist_train: 4_000,
                mnist_test: 1_000,
                epochs: 10,
                mc_samples: 8,
                train_mc: 1,
                hidden: 128,
            },
            RunScale::Full => LearnScale::paper(),
        }
    }
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a float with 4 decimal places.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a percentage with 2 decimal places.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// `n` rows of `features` standard-normal inputs from `seed`, each
/// labelled by the sign of its sum: the synthetic request stream of the
/// serving benches (`bench_serve`, `bench_cluster`, `bench_ingest`).
pub fn synth_rows(n: usize, features: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = GaussianInit::new(seed);
    let mut x = Matrix::zeros(n, features);
    let mut y = Vec::with_capacity(n);
    for r in 0..n {
        let mut s = 0.0;
        for c in 0..features {
            let v = rng.next_gaussian() as f32;
            x[(r, c)] = v;
            s += v;
        }
        y.push(usize::from(s > 0.0));
    }
    (x, y)
}

/// The serving benches' deployment: a `sizes` BNN trained for
/// `train_epochs` epochs on 512 [`synth_rows`] (seed 3), then deployed
/// with `mc_samples` Monte Carlo samples and calibrated on the first 64
/// of those rows.
///
/// # Panics
///
/// Panics if the deployment is invalid (e.g. `sizes[0]` is not the
/// input width or `mc_samples == 0`).
pub fn deploy(sizes: &[usize], mc_samples: usize, train_epochs: usize) -> Vibnn {
    let (x, y) = synth_rows(512, sizes[0], 3);
    let mut bnn = Bnn::new(BnnConfig::new(sizes).with_lr(0.01), 5);
    for _ in 0..train_epochs {
        bnn.train_epoch(&x, &y, 64);
    }
    VibnnBuilder::new(bnn.params())
        .mc_samples(mc_samples)
        .calibration(x.rows_slice(0, 64))
        .build()
        .expect("valid deployment")
}

/// The bit patterns of `row`: the form in which the serving benches
/// compare served probabilities against their references.
pub fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Writes a bench's JSON report to `$VIBNN_BENCH_OUT` if set, else to
/// `default_name` in the working directory, and prints the path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(default_name: &str, json: &str) {
    let path = std::env::var("VIBNN_BENCH_OUT").unwrap_or_else(|_| default_name.to_owned());
    std::fs::write(&path, json).expect("write benchmark output");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_knobs_are_ordered() {
        assert_eq!(RunScale::Quick.runs_trials(), 5);
        assert!(RunScale::Full.grng_samples() > RunScale::Quick.grng_samples());
        assert!(RunScale::Full.learn().epochs >= RunScale::Quick.learn().epochs);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(1.23456), "1.2346");
        assert_eq!(pct(0.5), "50.00%");
    }
}
