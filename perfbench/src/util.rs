//! Statistics, timing and process helpers shared by the workloads.

use std::collections::BTreeMap;
use std::time::Instant;

/// Named metric values of one run; units live in [`crate::catalog`].
pub type Metrics = BTreeMap<String, f64>;

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`; 0 for none).
/// Infinite values (failed or refused requests) sort last.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Runs `op` `per_worker` times on each of `workers` threads at once,
/// appends every latency (ms) to `samples`, and returns the mean over the
/// workers of each one's median latency. On a shared host one vCPU can
/// run much slower than another for minutes at a time: one thread's
/// median depends on which vCPU it landed on, this mean does not.
pub fn warm_burst(
    workers: usize,
    per_worker: usize,
    op: impl Fn() + Sync,
    samples: &mut Vec<f64>,
) -> f64 {
    let op = &op;
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(move || {
                    (0..per_worker)
                        .map(|_| {
                            let t = Instant::now();
                            op();
                            secs(t) * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm worker panicked")).collect()
    });
    let mean = per_thread.iter().map(|v| median(v)).sum::<f64>() / per_thread.len() as f64;
    samples.extend(per_thread.into_iter().flatten());
    mean
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of process `pid` (`"self"` for this process)
/// in MiB, from the kernel's high-water mark `VmHWM`.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable VmHWM line `{line}`"))?;
    Ok(kib / 1024.0)
}

/// The host's logical CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a over several byte strings, folded in order.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        h ^= fetchvp_tracestore::fnv1a(part);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Ratio `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_requests_sort_last() {
        let v = [1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert!(percentile(&v, 0.99).is_infinite());
    }

    #[test]
    fn warm_burst_times_every_operation_on_every_worker() {
        let mut samples = Vec::new();
        let p50 = warm_burst(2, 5, || std::hint::black_box(()), &mut samples);
        assert_eq!(samples.len(), 10);
        assert!(p50 >= 0.0 && p50 <= percentile(&samples, 1.0));
    }

    #[test]
    fn peak_rss_of_self_is_positive() {
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }
}
