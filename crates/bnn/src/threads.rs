//! The `VIBNN_THREADS` worker-count knob.

use std::sync::OnceLock;

static THREADS: OnceLock<usize> = OnceLock::new();

/// Returns the Monte Carlo / training worker count configured for this
/// process.
///
/// Reads the `VIBNN_THREADS` environment variable **once per process**
/// (the value is cached in a `OnceLock`, so the per-batch training hot
/// loop never touches the environment); any positive integer wins.
/// Unset, empty, or unparsable values fall back to the machine's
/// available parallelism (or 1 if that cannot be determined). Changing
/// the variable after the first call has no effect — APIs that take an
/// explicit `threads` argument bypass the knob entirely.
///
/// Thread count never affects results: the parallel inference and
/// training paths fork one substream per work unit and reduce in unit
/// order, so `VIBNN_THREADS=1` and `VIBNN_THREADS=64` produce
/// bit-identical outputs.
///
/// # Example
///
/// ```
/// let n = vibnn_bnn::vibnn_threads();
/// assert!(n >= 1);
/// ```
pub fn vibnn_threads() -> usize {
    *THREADS.get_or_init(|| {
        match std::env::var("VIBNN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => available_cores(),
        }
    })
}

/// The machine's available parallelism, read once per process (or 1 if
/// it cannot be determined). It respects the process's CPU affinity, so
/// a process pinned to one CPU sees 1.
pub(crate) fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_worker() {
        // Whatever the environment says, the answer is usable.
        assert!(vibnn_threads() >= 1);
    }

    #[test]
    fn cached_value_is_stable() {
        // The OnceLock guarantees every call sees the same resolved count.
        assert_eq!(vibnn_threads(), vibnn_threads());
    }
}
