//! Order statistics, process memory and the host fingerprint.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `total / count`, or 0 when nothing was counted.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The CPU model string of the host.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, model)| model.trim().to_owned())
}

/// Available hardware parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
