//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API; nothing inside the library is instrumented. A span
//! names its parent span and the request it belongs to. Self time is a
//! span's duration minus the durations of its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One recorded layer call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns the span's index with `f`'s value.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.t0).as_nanos() as u64,
            end_ns: (end - self.t0).as_nanos() as u64,
            parent,
            request,
        });
        (self.spans.len() - 1, out)
    }

    /// Self time of every span, in µs, indexed like the spans.
    fn self_us(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| (s.dur_ns() as f64 - c as f64) / 1e3)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect(),
        )
    }

    /// Summed duration (µs) of the spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .sum()
    }

    /// Median self time (µs) of the spans called `name`.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let own = self.self_us();
        median(
            self.spans
                .iter()
                .zip(own)
                .filter(|(s, _)| s.name == name)
                .map(|(_, us)| us)
                .collect(),
        )
    }

    /// Median over requests of the summed duration (µs) of their spans
    /// called `name`.
    pub fn median_per_request_us(&self, names: &[&str]) -> f64 {
        let mut per_request: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *per_request.entry(s.request).or_default() += s.dur_ns() as f64 / 1e3;
        }
        median(per_request.into_values().collect())
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_us();
        let mut out = String::from("index\tname\tparent\trequest\tstart_ns\tend_ns\tself_us\n");
        for (i, (s, us)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{us:.3}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
