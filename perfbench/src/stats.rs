//! Order statistics and process memory.

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median over consecutive units of `unit` samples of each unit's median:
/// a burst of host noise moves a few units, not the result. A trailing
/// partial unit is dropped unless it is the only one.
pub fn median_of_unit_medians(samples: &[f64], unit: usize) -> f64 {
    let units: Vec<f64> = samples
        .chunks(unit)
        .filter(|c| c.len() == unit || samples.len() < unit)
        .map(|c| median(c.to_vec()))
        .collect();
    median(units)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
